package compress

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// edgeVals is a column of kind k built to hit every equality corner of the
// boxed codecs: NaNs with distinct payloads (equal under value.Compare but
// hashed apart), ±0, ±Inf, extreme ints, empty strings, repeated runs.
func edgeVals(k value.Kind) []value.Value {
	nan2 := math.Float64frombits(0x7ff8000000000123)
	switch k {
	case value.Int:
		return []value.Value{
			value.NewInt(0), value.NewInt(0), value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64),
			value.NewInt(-1), value.NewInt(-1), value.NewInt(-1), value.NewInt(7), value.NewInt(0),
		}
	case value.Float:
		return []value.Value{
			value.NewFloat(math.NaN()), value.NewFloat(nan2), value.NewFloat(math.NaN()),
			value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0), value.NewFloat(math.Inf(1)),
			value.NewFloat(math.Inf(-1)), value.NewFloat(math.Inf(-1)), value.NewFloat(1.5),
			value.NewFloat(0x1p63), value.NewFloat(-0x1p63), value.NewFloat(nan2), value.NewFloat(1.5),
		}
	case value.Bool:
		return []value.Value{value.NewBool(true), value.NewBool(true), value.NewBool(false), value.NewBool(true)}
	case value.Str:
		return []value.Value{value.NewString(""), value.NewString(""), value.NewString("a"), value.NewString(""), value.NewString("ab")}
	case value.Bytes:
		return []value.Value{value.NewBytes(nil), value.NewBytes([]byte{0}), value.NewBytes(nil), value.NewBytes([]byte{0, 1})}
	}
	return nil
}

// encodeBoth encodes vals through the boxed Encode and through EncodeVec
// (over a vector padded with rows outside [lo, hi)) and fails on any
// difference in bytes or error.
func encodeBoth(t *testing.T, c Codec, k value.Kind, vals []value.Value) {
	t.Helper()
	want, werr := c.Encode([]byte("pre"), k, vals)
	var v vec.Vector
	v.Reset(k)
	pad := edgeVals(k)[:1]
	for _, x := range append(append(append([]value.Value(nil), pad...), vals...), pad...) {
		if err := v.AppendValue(x); err != nil {
			t.Fatal(err)
		}
	}
	got, gerr := EncodeVec(c, []byte("pre"), k, &v, 1, 1+len(vals))
	if (werr != nil) != (gerr != nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s/%s: boxed err %v, typed err %v", c.Name(), k, werr, gerr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s/%s: typed encoding differs\n boxed %x\n typed %x", c.Name(), k, want, got)
	}
}

// TestEncodeVecMatchesBoxed checks every typed encoder against the boxed
// Encode for every codec × kind — rejected kinds included, where both paths
// must fail identically — on edge values, random columns and empty chunks.
func TestEncodeVecMatchesBoxed(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	kinds := []value.Kind{value.Int, value.Float, value.Bool, value.Str, value.Bytes}
	for _, name := range Names() {
		c, _ := Lookup(name)
		for _, k := range kinds {
			encodeBoth(t, c, k, edgeVals(k))
			encodeBoth(t, c, k, nil)
			for trial := 0; trial < 20; trial++ {
				encodeBoth(t, c, k, randVals(r, k, 1+r.Intn(300)))
			}
		}
	}
}

// TestEncodeVecNullFallback checks that chunks with nulls take the boxed
// Encode (and fail like it), while a null outside the range does not
// disturb a typed encode of the rest.
func TestEncodeVecNullFallback(t *testing.T) {
	for _, name := range Names() {
		c, _ := Lookup(name)
		var v vec.Vector
		v.Reset(value.Int)
		v.AppendNull()
		v.AppendInt64(3)
		v.AppendInt64(4)
		v.AppendNull()
		_, want := c.Encode(nil, value.Int, []value.Value{value.NewInt(3), value.NewInt(4), value.NullValue()})
		if _, err := EncodeVec(c, nil, value.Int, &v, 1, 4); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: null chunk: got %v, want %v", name, err, want)
		}
		// A leading null must fail too (bitpack once read it as an int).
		if _, err := EncodeVec(c, nil, value.Int, &v, 0, 2); err == nil {
			t.Errorf("%s: leading null accepted", name)
		}
		got, err := EncodeVec(c, nil, value.Int, &v, 1, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, _ := c.Encode(nil, value.Int, []value.Value{value.NewInt(3), value.NewInt(4)})
		if !bytes.Equal(got, ref) {
			t.Errorf("%s: null outside the range changed the encoding", name)
		}
	}
}

// TestEncodeVecListColumn checks that List columns encode their boxed
// values through Encode.
func TestEncodeVecListColumn(t *testing.T) {
	vals := []value.Value{
		value.NewList(value.NewInt(1), value.NewString("x")),
		value.NewList(),
		value.NewList(value.NewFloat(2.5)),
	}
	var v vec.Vector
	v.Reset(value.List)
	for _, x := range vals {
		v.AppendValue(x)
	}
	for _, name := range []string{"none", "rle", "dict"} {
		c, _ := Lookup(name)
		want, err := c.Encode(nil, value.List, vals[1:])
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeVec(c, nil, value.List, &v, 1, 3)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: list chunk differs (%v)", name, err)
		}
	}
}

func BenchmarkEncodeVec(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	for _, name := range Names() {
		c, _ := Lookup(name)
		for _, k := range kindsFor(name) {
			var v vec.Vector
			v.Reset(k)
			for _, x := range randVals(r, k, 4096) {
				v.AppendValue(x)
			}
			b.Run(fmt.Sprintf("%s/%s", name, k), func(b *testing.B) {
				b.ReportAllocs()
				var dst []byte
				for i := 0; i < b.N; i++ {
					var err error
					if dst, err = EncodeVec(c, dst[:0], k, &v, 0, v.Len()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
