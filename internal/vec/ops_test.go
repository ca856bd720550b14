package vec_test

import (
	"math"
	"math/rand"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/transforms"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// permSchema has a row-id column (pos) so a permutation can be read back
// from the reordered rows, plus one key column of every kind.
var permSchema = value.MustSchema(
	value.Field{Name: "pos", Type: value.Int},
	value.Field{Name: "i", Type: value.Int},
	value.Field{Name: "f", Type: value.Float},
	value.Field{Name: "s", Type: value.Str},
	value.Field{Name: "b", Type: value.Bool},
	value.Field{Name: "l", Type: value.List},
)

// permRows draws few distinct values per column (many ties) including
// nulls, NaNs with two payloads, ±0 and ±Inf.
func permRows(r *rand.Rand, n int) []value.Row {
	nan2 := math.Float64frombits(0x7ff8000000000abc)
	floats := []float64{math.NaN(), nan2, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5, -2, 3}
	pick := func(v value.Value) value.Value {
		if r.Intn(12) == 0 {
			return value.NullValue()
		}
		return v
	}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			pick(value.NewInt(int64(r.Intn(5) - 2))),
			pick(value.NewFloat(floats[r.Intn(len(floats))])),
			pick(value.NewString([]string{"", "a", "ab", "b"}[r.Intn(4)])),
			pick(value.NewBool(r.Intn(2) == 0)),
			pick(value.NewList(value.NewInt(int64(r.Intn(2))), value.NewString("x"))),
		}
	}
	return rows
}

// positions reads the pos column of boxed rows.
func positions(rows []value.Row) []int32 {
	out := make([]int32, len(rows))
	for i, r := range rows {
		out[i] = int32(r[0].Int())
	}
	return out
}

func keyVecs(t *testing.T, b *vec.Batch, fields []string) []*vec.Vector {
	t.Helper()
	out := make([]*vec.Vector, len(fields))
	for i, f := range fields {
		out[i] = &b.Cols[permSchema.Index(f)]
	}
	return out
}

func samePerm(t *testing.T, what string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d holds row %d, transforms put row %d there", what, i, got[i], want[i])
		}
	}
}

// TestSortPermMatchesOrderBy checks SortPerm against transforms.OrderBy on
// random key lists, directions and data.
func TestSortPermMatchesOrderBy(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	names := []string{"i", "f", "s", "b", "l"}
	for trial := 0; trial < 200; trial++ {
		rows := permRows(r, 1+r.Intn(300))
		b, err := vec.FromRows(permSchema, rows)
		if err != nil {
			t.Fatal(err)
		}
		nk := 1 + r.Intn(3)
		keys := make([]algebra.OrderKey, nk)
		fields := make([]string, nk)
		desc := make([]bool, nk)
		for k := range keys {
			fields[k], desc[k] = names[r.Intn(len(names))], r.Intn(2) == 0
			keys[k] = algebra.OrderKey{Field: fields[k], Desc: desc[k]}
		}
		want, err := transforms.OrderBy(transforms.Relation{Schema: permSchema, Rows: rows}, keys)
		if err != nil {
			t.Fatal(err)
		}
		samePerm(t, "orderby", vec.SortPerm(keyVecs(t, b, fields), desc, b.Len()), positions(want.Rows))
	}
}

// TestGroupPermMatchesGroupBy checks GroupPerm against transforms.GroupBy:
// same group order (first appearance), same order within groups, same
// equality classes (NaN payloads apart, ±0 together, null with null).
func TestGroupPermMatchesGroupBy(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	names := []string{"i", "f", "s", "b", "l"}
	for trial := 0; trial < 200; trial++ {
		rows := permRows(r, 1+r.Intn(300))
		b, err := vec.FromRows(permSchema, rows)
		if err != nil {
			t.Fatal(err)
		}
		fields := []string{names[r.Intn(len(names))]}
		if r.Intn(2) == 0 {
			fields = append(fields, names[r.Intn(len(names))])
		}
		want, err := transforms.GroupBy(transforms.Relation{Schema: permSchema, Rows: rows}, fields)
		if err != nil {
			t.Fatal(err)
		}
		samePerm(t, "groupby", vec.GroupPerm(keyVecs(t, b, fields), b.Len()), positions(want.Rows))
	}
}

// TestBatchOps covers the batch plumbing of the write path: append,
// take, pick and truncate keep every column (and its nulls) aligned.
func TestBatchOps(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rows := permRows(r, 150)
	a, _ := vec.FromRows(permSchema, rows[:100])
	b, _ := vec.FromRows(permSchema, rows[100:])
	if err := a.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	for i, want := range rows {
		if got := a.Row(i); rowString(got) != rowString(want) {
			t.Fatalf("append: row %d = %v, want %v", i, got, want)
		}
	}
	perm := []int32{149, 3, 3, 0}
	took := a.Take(perm)
	for k, i := range perm {
		if rowString(took.Row(k)) != rowString(rows[i]) {
			t.Fatalf("take: row %d", k)
		}
	}
	picked := a.Pick(value.MustSchema(permSchema.Fields[3], permSchema.Fields[0]), []int{3, 0})
	picked.Truncate(77)
	if picked.Len() != 77 {
		t.Fatalf("truncate: len %d", picked.Len())
	}
	for i := 0; i < 77; i++ {
		got := picked.Row(i)
		if rowString(got) != rowString(value.Row{rows[i][3], rows[i][0]}) {
			t.Fatalf("pick+truncate: row %d = %v", i, got)
		}
	}
	for c := range picked.Cols {
		if picked.Cols[c].Nulls.AnyIn(77, 200) {
			t.Fatalf("truncate left null bits past the end")
		}
	}
	// The source batch is untouched by truncating its picked view.
	if a.Len() != 150 || rowString(a.Row(149)) != rowString(rows[149]) {
		t.Fatal("truncate of a picked batch changed its source")
	}
	mismatch, _ := vec.FromRows(value.MustSchema(value.Field{Name: "pos", Type: value.Float}), nil)
	if err := mismatch.AppendBatch(a.Pick(value.MustSchema(permSchema.Fields[0]), []int{0})); err == nil {
		t.Error("appending int rows into a float column succeeded")
	}
}

func rowString(r value.Row) string {
	s := ""
	for _, v := range r {
		s += v.String() + "|"
	}
	return s
}
