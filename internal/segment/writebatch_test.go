package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rodentstore/internal/compress"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// writeRows writes boxed rows as one block through the columnar path.
func writeRows(w *Writer, cell uint64, rows []value.Row) error {
	schema, err := value.NewSchema(w.spec.Fields...)
	if err != nil {
		return err
	}
	b, err := vec.FromRows(schema, rows)
	if err != nil {
		return err
	}
	cols := make([]*vec.Vector, len(b.Cols))
	for i := range b.Cols {
		cols[i] = &b.Cols[i]
	}
	return w.WriteBatch(cell, cols, 0, b.Len())
}

// writeBlockBoxed is the boxed block writer the columnar path replaced,
// kept as the byte-identity oracle: rows are split into boxed columns,
// encoded with each codec's boxed Encode, and zone-mapped from the boxed
// values.
func writeBlockBoxed(w *Writer, cell uint64, rows []value.Row) error {
	if len(rows) == 0 {
		return nil
	}
	ncols := len(w.spec.Fields)
	cols := make([][]value.Value, ncols)
	for c := range cols {
		col := make([]value.Value, len(rows))
		for r, row := range rows {
			if len(row) != ncols {
				return fmt.Errorf("segment: row arity %d != %d fields", len(row), ncols)
			}
			col[r] = row[c]
		}
		cols[c] = col
	}
	body := binary.LittleEndian.AppendUint64(nil, cell)
	body = binary.AppendUvarint(body, uint64(len(rows)))
	for c, col := range cols {
		chunk, err := w.codecs[c].Encode(nil, w.spec.Fields[c].Type, col)
		if err != nil {
			return fmt.Errorf("segment: field %q: %w", w.spec.Fields[c].Name, err)
		}
		body = binary.LittleEndian.AppendUint32(body, uint32(len(chunk)))
		body = append(body, chunk...)
	}
	var zones []ZoneMap
	for c, f := range w.spec.Fields {
		if f.Type != value.Int && f.Type != value.Float {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		ok := true
		for _, v := range cols[c] {
			if v.IsNull() {
				ok = false
				break
			}
			if x := v.Float(); x < lo {
				lo = x
			}
			if x := v.Float(); x > hi {
				hi = x
			}
		}
		if ok {
			zones = append(zones, ZoneMap{Field: f.Name, Min: lo, Max: hi})
		}
	}
	w.blocks = append(w.blocks, BlockMeta{
		Off: uint64(len(w.buf)), Len: uint32(4 + len(body)), Rows: len(rows),
		RowStart: w.rows, Cell: cell, Zones: zones,
	})
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(body)))
	w.buf = append(w.buf, body...)
	w.rows += int64(len(rows))
	return nil
}

// mixedRows builds rows of every stored kind, with the float corner cases
// (NaN, ±0, ±Inf) and repetition for rle/dict. Past row n/2 the floats
// have no infinities, so NaN is the only value that could corrupt a zone.
func mixedRows(r *rand.Rand, n int) []value.Row {
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 2.5, math.Inf(1), math.Inf(-1)}
	rows := make([]value.Row, n)
	for i := range rows {
		f := r.NormFloat64()
		if r.Intn(4) == 0 && i < n/2 {
			f = floats[r.Intn(len(floats))]
		} else if r.Intn(4) == 0 {
			f = floats[r.Intn(4)]
		}
		rows[i] = value.Row{
			value.NewInt(int64(i/3) - int64(r.Intn(3))),
			value.NewFloat(f),
			value.NewBool(r.Intn(3) == 0),
			value.NewString([]string{"", "car-1", "car-22"}[r.Intn(3)]),
			value.NewBytes([]byte{byte(r.Intn(3))}),
			value.NewList(value.NewInt(int64(i)), value.NewString("x")),
		}
	}
	return rows
}

func mixedFields() []value.Field {
	return []value.Field{
		{Name: "i", Type: value.Int}, {Name: "f", Type: value.Float}, {Name: "b", Type: value.Bool},
		{Name: "s", Type: value.Str}, {Name: "y", Type: value.Bytes}, {Name: "l", Type: value.List},
	}
}

// TestWriteBatchMatchesBoxedWriteBlock renders the same blocks through
// WriteBatch and the boxed oracle, for every codec on every kind it
// accepts, and requires identical stream bytes and block metadata
// (offsets, row starts, cells, zone maps).
func TestWriteBatchMatchesBoxedWriteBlock(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rows := mixedRows(r, 1500)
	all := mixedFields()
	for _, codec := range compress.Names() {
		for ci, f := range all {
			if f.Type == value.List && codec != "none" && codec != "rle" && codec != "dict" {
				continue
			}
			if (codec == "delta" && f.Type != value.Int && f.Type != value.Float) || (codec == "bitpack" && f.Type != value.Int) {
				continue
			}
			// The field under test with the codec, plus an int and a float
			// column so every block carries zone maps.
			spec := Spec{Fields: []value.Field{f, all[0], all[1]}, Codecs: []string{codec, "", ""}}
			if ci <= 1 {
				spec = Spec{Fields: []value.Field{f}, Codecs: []string{codec}}
			}
			proj := make([]value.Row, len(rows))
			for i, row := range rows {
				proj[i] = value.Row{row[ci]}
				if ci > 1 {
					proj[i] = append(proj[i], row[0], row[1])
				}
			}
			f0 := newFile(t)
			boxed, _ := NewWriter(f0, spec)
			typed, _ := NewWriter(f0, spec)
			for lo, cell := 0, uint64(0); lo < len(proj); lo, cell = lo+317, cell+1 {
				hi := min(lo+317, len(proj))
				if err := writeBlockBoxed(boxed, cell, proj[lo:hi]); err != nil {
					t.Fatal(err)
				}
				if err := writeRows(typed, cell, proj[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
			name := codec + "/" + f.Type.String()
			if !bytes.Equal(boxed.Buf(), typed.Buf()) {
				t.Errorf("%s: segment bytes differ", name)
			}
			if !reflect.DeepEqual(boxed.blocks, typed.blocks) {
				t.Errorf("%s: block metadata differs\n boxed %+v\n typed %+v", name, boxed.blocks, typed.blocks)
			}
		}
	}
}

// TestWriteBatchNullsOmitZone checks that a block with a null in a numeric
// field gets no zone map for that field, as the boxed writer did, and that
// the null itself is refused by the codec.
func TestWriteBatchNullsOmitZone(t *testing.T) {
	f := newFile(t)
	spec := Spec{Fields: []value.Field{{Name: "a", Type: value.Int}}, Codecs: []string{""}}
	w, _ := NewWriter(f, spec)
	var v vec.Vector
	v.Reset(value.Int)
	v.AppendInt64(1)
	v.AppendNull()
	if err := w.WriteBatch(NoCell, []*vec.Vector{&v}, 0, 2); err == nil {
		t.Fatal("null accepted")
	}
	if len(w.Buf()) != 0 || len(w.blocks) != 0 {
		t.Fatal("failed block left bytes behind")
	}
	if z, ok := zoneOf(spec.Fields[0], &v, 0, 2); ok {
		t.Errorf("zone over a null: %+v", z)
	}
}

func BenchmarkWriteBatch(b *testing.B) {
	rows := traceRows(4096)
	for _, codec := range compress.Names() {
		spec := traceSpec()
		spec.Codecs = []string{codec, codec, codec}
		switch codec {
		case "delta":
			spec.Codecs[2] = ""
		case "bitpack":
			spec.Codecs[1], spec.Codecs[2] = "", ""
		}
		b.Run(codec, func(b *testing.B) {
			schema := value.MustSchema(spec.Fields...)
			batch, err := vec.FromRows(schema, rows)
			if err != nil {
				b.Fatal(err)
			}
			cols := []*vec.Vector{&batch.Cols[0], &batch.Cols[1], &batch.Cols[2]}
			b.ReportAllocs()
			b.SetBytes(int64(len(rows)) * 8 * 3)
			for i := 0; i < b.N; i++ {
				w, err := NewWriter(nil, spec)
				if err != nil {
					b.Fatal(err)
				}
				for lo := 0; lo < len(rows); lo += 1024 {
					if err := w.WriteBatch(NoCell, cols, lo, lo+1024); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
