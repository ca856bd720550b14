package pager

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenRejectsUnsupportedHeaders checks that headers this version does
// not write — the checksum-less RDNT0001 format, and a page size below
// MinPageSize under an otherwise valid RDNT0002 header — fail Open with a
// typed *ErrCorruptPage rather than opening or panicking.
func TestOpenRejectsUnsupportedHeaders(t *testing.T) {
	dir := t.TempDir()
	valid := filepath.Join(dir, "valid.rdnt")
	p, err := Create(valid, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}

	v1 := append([]byte(nil), raw...)
	copy(v1, "RDNT0001")

	small := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(small[8:], 192)
	binary.LittleEndian.PutUint32(small[188:], crc32.ChecksumIEEE(small[:188]))

	for name, img := range map[string][]byte{"RDNT0001": v1, "pagesize192": small} {
		path := filepath.Join(dir, name+".rdnt")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := Open(path)
		if err == nil {
			f.Close()
			t.Fatalf("%s: opened", name)
		}
		var ce *ErrCorruptPage
		if !errors.As(err, &ce) || ce.Page != 0 {
			t.Fatalf("%s: %v is not a header *ErrCorruptPage", name, err)
		}
	}
}
