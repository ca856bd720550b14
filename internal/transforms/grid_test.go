package transforms

import (
	"math/rand"
	"reflect"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// TestGridPartitionMatchesBoxed checks the batch grid partition against
// the boxed ComputeGridBounds + GridAssign + CurveOrder composition: same
// bounds, same cells in the same curve order, same rows per cell in input
// order, and the same errors.
func TestGridPartitionMatchesBoxed(t *testing.T) {
	s := value.MustSchema(
		value.Field{Name: "x", Type: value.Int},
		value.Field{Name: "y", Type: value.Float},
		value.Field{Name: "s", Type: value.Str},
	)
	r := rand.New(rand.NewSource(4))
	for _, curve := range []algebra.CurveKind{algebra.CurveRowMajor, algebra.CurveZOrder, algebra.CurveHilbert} {
		for trial := 0; trial < 20; trial++ {
			rows := make([]value.Row, r.Intn(400))
			for i := range rows {
				rows[i] = value.Row{value.NewInt(int64(r.Intn(50))), value.NewFloat(r.NormFloat64()), value.NewString("v")}
			}
			rel := Relation{Schema: s, Rows: rows}
			dims := []algebra.GridDim{{Field: "x", Cells: 1 + r.Intn(8)}, {Field: "y", Cells: 1 + r.Intn(8)}}
			wantBounds, err := ComputeGridBounds(rel, dims)
			if err != nil {
				t.Fatal(err)
			}
			byCell, err := GridAssign(rel, wantBounds)
			if err != nil {
				t.Fatal(err)
			}
			var distinct []uint64
			for cell := range byCell {
				distinct = append(distinct, cell)
			}
			order, err := CurveOrder(distinct, wantBounds, curve)
			if err != nil {
				t.Fatal(err)
			}
			b, err := vec.FromRows(s, rows)
			if err != nil {
				t.Fatal(err)
			}
			perm, cells, bounds, err := GridPartition(b, dims, curve)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bounds, wantBounds) {
				t.Fatalf("bounds %+v, boxed %+v", bounds, wantBounds)
			}
			if len(cells) != len(order) {
				t.Fatalf("%d cells, boxed %d", len(cells), len(order))
			}
			for k, run := range cells {
				if run.Cell != order[k] || run.Hi-run.Lo != len(byCell[run.Cell]) {
					t.Fatalf("cell run %d: %+v, boxed cell %d with %d rows", k, run, order[k], len(byCell[order[k]]))
				}
				for j, row := range byCell[run.Cell] {
					if got := b.Row(int(perm[run.Lo+j])); !reflect.DeepEqual(got, row) {
						t.Fatalf("cell %d row %d: %v, boxed %v", run.Cell, j, got, row)
					}
				}
			}
		}
	}
	// Errors match the boxed path's.
	b, _ := vec.FromRows(s, []value.Row{{value.NullValue(), value.NewFloat(1), value.NewString("a")}})
	for _, dims := range [][]algebra.GridDim{{{Field: "x", Cells: 2}}, {{Field: "s", Cells: 2}}, {{Field: "nope", Cells: 2}}} {
		_, _, _, gerr := GridPartition(b, dims, algebra.CurveRowMajor)
		_, berr := ComputeGridBounds(Relation{Schema: s, Rows: []value.Row{{value.NullValue(), value.NewFloat(1), value.NewString("a")}}}, dims)
		if gerr == nil || berr == nil || gerr.Error() != berr.Error() {
			t.Errorf("dims %v: batch err %v, boxed err %v", dims, gerr, berr)
		}
	}
}
