package catalog

import (
	"errors"
	"testing"
)

// TestDecodeRejectsJSONPayload checks that a JSON-array catalog payload
// (the format of early development builds, which this version no longer
// reads) fails with a typed *ErrBadPayload instead of decoding or
// panicking.
func TestDecodeRejectsJSONPayload(t *testing.T) {
	for _, payload := range []string{`[]`, `[{"name":"T","fields":[]}]`, `[`} {
		tables, err := decodeTables([]byte(payload))
		var bad *ErrBadPayload
		if !errors.As(err, &bad) {
			t.Fatalf("%q: got tables %v, err %v; want *ErrBadPayload", payload, tables, err)
		}
	}
}
