package table

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
)

// vecSchema is the differential-test schema: one column per vectorizable
// kind plus spatial floats for grid layouts and a float column f holding
// ties, NaN, ±0 and ±Inf.
func vecSchema() *value.Schema {
	return value.MustSchema(
		value.Field{Name: "t", Type: value.Int},
		value.Field{Name: "a", Type: value.Int},
		value.Field{Name: "x", Type: value.Float},
		value.Field{Name: "y", Type: value.Float},
		value.Field{Name: "s", Type: value.Str},
		value.Field{Name: "b", Type: value.Bool},
		value.Field{Name: "f", Type: value.Float},
	)
}

var vecSpecialFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5, -2.25}

func vecRows(r *rand.Rand, n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(r.Intn(7))),
			value.NewFloat(r.Float64() * 100),
			value.NewFloat(r.Float64() * 100),
			value.NewString(fmt.Sprintf("s%d", r.Intn(5))),
			value.NewBool(r.Intn(2) == 0),
			value.NewFloat(vecSpecialFloats[r.Intn(len(vecSpecialFloats))]),
		}
	}
	return rows
}

// vecLayouts samples the layout space: plain rows, pure columns, column
// groups, ordered, gridded, and codec-compressed variants.
var vecLayouts = []string{
	"chunk[64](rows(T))",
	"chunk[64](cols(T))",
	"chunk[64](colgroup[t,a](T))",
	"chunk[64](orderby[t](rows(T)))",
	"chunk[64](zorder(grid[x,y; 8,8](rows(T))))",
	"chunk[64](delta[x,y](zorder(grid[x,y; 8,8](rows(T)))))",
	"chunk[64](dict[s](rle[a](delta[t](cols(T)))))",
	"chunk[64](bitpack[a](rows(T)))",
}

// vecPreds samples the predicate space (conjunctions over every kind).
func vecPred(r *rand.Rand) algebra.Predicate {
	ops := []algebra.CmpOp{algebra.OpEq, algebra.OpNe, algebra.OpLt, algebra.OpLe, algebra.OpGt, algebra.OpGe}
	p := algebra.True
	for n := r.Intn(3); n >= 0; n-- {
		op := ops[r.Intn(len(ops))]
		switch r.Intn(6) {
		case 0:
			p = p.And("t", op, value.NewInt(int64(r.Intn(3000))))
		case 1:
			p = p.And("a", op, value.NewFloat(float64(r.Intn(7))-0.5)) // cross-numeric
		case 2:
			p = p.And("x", op, value.NewFloat(r.Float64()*100))
		case 3:
			p = p.And("s", op, value.NewString(fmt.Sprintf("s%d", r.Intn(5))))
		case 4:
			p = p.And("f", op, value.NewFloat(vecSpecialFloats[1+r.Intn(len(vecSpecialFloats)-1)]))
		default:
			p = p.And("b", op, value.NewBool(r.Intn(2) == 0))
		}
	}
	return p
}

func vecProj(r *rand.Rand) []string {
	switch r.Intn(5) {
	case 0:
		return nil // all fields
	case 1:
		return []string{"x", "y"}
	case 2:
		return []string{"s", "t"}
	case 3:
		return []string{"f", "a", "b"}
	default:
		return []string{"a"}
	}
}

// vecOrder picks one or two sort keys among the output fields, each
// ascending or descending (nil half the time).
func vecOrder(r *rand.Rand, fields []string) []algebra.OrderKey {
	if fields == nil {
		fields = vecSchema().Names()
	}
	if r.Intn(2) == 0 {
		return nil
	}
	var order []algebra.OrderKey
	for n := 1 + r.Intn(2); n > 0; n-- {
		order = append(order, algebra.OrderKey{Field: fields[r.Intn(len(fields))], Desc: r.Intn(2) == 0})
	}
	return order
}

// loadVecTable creates T under layoutExpr with a bulk-loaded main part and
// a tail batch, so every case crosses a part boundary.
func loadVecTable(t *testing.T, layoutExpr string, seed int64) *Engine {
	t.Helper()
	e, _, _ := newEngine(t)
	if err := e.Create("T", vecSchema(), layoutExpr); err != nil {
		t.Fatal(err)
	}
	rows := vecRows(rand.New(rand.NewSource(seed)), 3000)
	if err := e.Load("T", rows[:2500]); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("T", rows[2500:]); err != nil {
		t.Fatal(err)
	}
	return e
}

// scanVariants are the executor configurations every differential case
// runs under: serial, coalesced, prefetched, parallel (alone and with
// prefetch), and quarantine on clean data, serial and parallel.
func scanVariants(base ScanOptions) []struct {
	name string
	opts ScanOptions
} {
	with := func(f func(*ScanOptions)) ScanOptions {
		o := base
		f(&o)
		return o
	}
	return []struct {
		name string
		opts ScanOptions
	}{
		{"serial", base},
		{"coalesce", with(func(o *ScanOptions) { o.Coalesce = true })},
		{"prefetch", with(func(o *ScanOptions) { o.Prefetch = true })},
		{"parallel", with(func(o *ScanOptions) { o.Parallel, o.Workers = true, 4 })},
		{"parallel-prefetch", with(func(o *ScanOptions) { o.Parallel, o.Workers, o.Prefetch = true, 3, true })},
		{"quarantine", with(func(o *ScanOptions) { o.Quarantine = true })},
		{"parallel-quarantine", with(func(o *ScanOptions) { o.Parallel, o.Workers, o.Quarantine = true, 2, true })},
	}
}

// drainModes name the ways a differential case consumes a cursor.
var drainModes = []string{"next", "batch", "mixed"}

// drainAs consumes the cursor with Next, with NextBatch, or alternating
// the two at random (mode indexes drainModes), and closes it.
func drainAs(t testing.TB, c *Cursor, mode int, r *rand.Rand) []value.Row {
	t.Helper()
	defer c.Close()
	var out []value.Row
	for {
		if mode == 0 || (mode == 2 && r.Intn(3) == 0) {
			row, ok, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			out = append(out, row)
			continue
		}
		b, ok, err := c.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i))
		}
	}
}

// TestVectorizedScanDifferential is the differential property test of the
// block executor: across layouts, codecs, projections, predicates, sort
// orders, tails and zone pruning, every executor variant must return the
// reference evaluator's rows, via Next, via NextBatch and via both mixed.
func TestVectorizedScanDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for _, layoutExpr := range vecLayouts {
		t.Run(layoutExpr, func(t *testing.T) {
			e := loadVecTable(t, layoutExpr, 1234)
			for trial := 0; trial < 12; trial++ {
				fields := vecProj(r)
				base := ScanOptions{Fields: fields, Pred: vecPred(r), Order: vecOrder(r, fields), NoZonePrune: r.Intn(2) == 0}
				want := oracleScan(t, e, "T", base)
				for _, v := range scanVariants(base) {
					for mode, name := range drainModes {
						cur, err := e.Scan("T", v.opts)
						if err != nil {
							t.Fatal(err)
						}
						requireRows(t, fmt.Sprintf("trial %d %s/%s pred=%q fields=%v order=%v noZone=%v",
							trial, v.name, name, base.Pred, fields, base.Order, base.NoZonePrune),
							drainAs(t, cur, mode, r), want)
					}
				}
			}
		})
	}
}

// TestVectorizedScanMixedNextAndBatch drains cursors alternating Next and
// NextBatch — including NextBatch right after Next consumed part of a
// batch — and checks nothing is lost or duplicated at the seams, for plain,
// re-sorted and aggregate results under every executor variant.
func TestVectorizedScanMixedNextAndBatch(t *testing.T) {
	e := loadVecTable(t, "chunk[64](rows(T))", 5)
	r := rand.New(rand.NewSource(6))
	spec := AggSpec{GroupBy: []string{"s", "a"}, Items: []AggItem{{Func: AggCount}}}
	for _, base := range []ScanOptions{
		{},
		{Pred: algebra.True.And("x", algebra.OpLt, value.NewFloat(50))},
		{Order: []algebra.OrderKey{{Field: "f", Desc: true}, {Field: "a"}}},
		{Aggregate: &spec},
	} {
		want := oracleScan(t, e, "T", base)
		for _, v := range scanVariants(base) {
			for trial := 0; trial < 3; trial++ {
				cur, err := e.Scan("T", v.opts)
				if err != nil {
					t.Fatal(err)
				}
				requireRows(t, fmt.Sprintf("%s %+v", v.name, base), drainAs(t, cur, 2, r), want)
			}
		}
	}
}

// TestIndexScanDifferential checks IndexScan against the reference
// evaluator: rows matching the predicate, projected, in stored order —
// including the tail rows appended after the index was built.
func TestIndexScanDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(4321))
	for _, layoutExpr := range vecLayouts {
		t.Run(layoutExpr, func(t *testing.T) {
			e, _, _ := newEngine(t)
			if err := e.Create("T", vecSchema(), layoutExpr); err != nil {
				t.Fatal(err)
			}
			rows := vecRows(rand.New(rand.NewSource(4321)), 3000)
			if err := e.Load("T", rows[:2500]); err != nil {
				t.Fatal(err)
			}
			for _, f := range []string{"a", "x"} {
				if err := e.CreateIndex("T", f); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Insert("T", rows[2500:]); err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 10; trial++ {
				field, lo, hi := "a", value.NewInt(int64(r.Intn(7))), value.NewInt(int64(r.Intn(7)))
				if r.Intn(2) == 0 {
					field, lo, hi = "x", value.NewFloat(r.Float64()*100), value.NewFloat(r.Float64()*100)
				}
				pred := vecPred(r).And(field, algebra.OpGe, lo)
				if r.Intn(2) == 0 {
					pred = pred.And(field, algebra.OpLe, hi)
				}
				fields := vecProj(r)
				want := oracleScan(t, e, "T", ScanOptions{Fields: fields, Pred: pred})
				cur, err := e.IndexScan("T", fields, pred, field)
				if err != nil {
					t.Fatal(err)
				}
				requireRows(t, fmt.Sprintf("trial %d index %s pred=%q fields=%v", trial, field, pred, fields),
					drainAs(t, cur, trial%3, r), want)
			}
		})
	}
}

// TestGetElementDifferential checks getElement against the reference
// evaluator: by stored position, the cursor continues from that row; by
// grid cell, from the first row of the cell's first block.
func TestGetElementDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for _, layoutExpr := range vecLayouts {
		t.Run(layoutExpr, func(t *testing.T) {
			e := loadVecTable(t, layoutExpr, 99)
			for trial := 0; trial < 8; trial++ {
				fields := vecProj(r)
				pos := int64(r.Intn(3000))
				switch trial {
				case 0:
					pos = 0
				case 1:
					pos = 2999
				case 2:
					pos = 2500 // first tail row
				}
				want := oracleRowsFrom(t, e, "T", fields, func(_ uint64, p int64) bool { return p == pos })
				cur, err := e.GetElement("T", fields, []int64{pos})
				if err != nil {
					t.Fatal(err)
				}
				requireRows(t, fmt.Sprintf("row %d fields=%v", pos, fields), drainAs(t, cur, trial%3, r), want)
			}
			tab, err := e.cat.Get("T")
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.GridBounds) != 2 {
				return
			}
			blocks := tab.Segments[0].Meta.Blocks
			for trial := 0; trial < 6; trial++ {
				cell := blocks[r.Intn(len(blocks))].Cell
				fields := vecProj(r)
				cells1 := uint64(tab.GridBounds[1].Cells)
				want := oracleRowsFrom(t, e, "T", fields, func(c uint64, _ int64) bool { return c == cell })
				cur, err := e.GetElement("T", fields, []int64{int64(cell / cells1), int64(cell % cells1)})
				if err != nil {
					t.Fatal(err)
				}
				requireRows(t, fmt.Sprintf("cell %d fields=%v", cell, fields), drainAs(t, cur, trial%3, r), want)
			}
		})
	}
}

// TestPooledBatchStress hammers the shared batch pool from many concurrent
// cursors — serial and parallel, Next and NextBatch — so the race detector
// can see any cross-goroutine batch reuse bug.
func TestPooledBatchStress(t *testing.T) {
	e, _, _ := newEngine(t)
	if err := e.Create("T", vecSchema(), "chunk[64](zorder(grid[x,y; 8,8](rows(T))))"); err != nil {
		t.Fatal(err)
	}
	rows := vecRows(rand.New(rand.NewSource(21)), 4000)
	if err := e.Load("T", rows); err != nil {
		t.Fatal(err)
	}
	pred := algebra.True.And("x", algebra.OpLt, value.NewFloat(50))
	oracle, err := e.Scan("T", ScanOptions{Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, oracle)
	oracle.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				opts := ScanOptions{Pred: pred, Parallel: g%2 == 0, Workers: 3}
				cur, err := e.Scan("T", opts)
				if err != nil {
					errs <- err
					return
				}
				n := 0
				if g%3 == 0 {
					for {
						b, ok, err := cur.NextBatch()
						if err != nil {
							errs <- err
							return
						}
						if !ok {
							break
						}
						// Touch every cell so the race detector sees reads of
						// pooled memory.
						for i := 0; i < b.Len(); i++ {
							_ = b.Row(i)
							n++
						}
					}
				} else {
					for {
						_, ok, err := cur.Next()
						if err != nil {
							errs <- err
							return
						}
						if !ok {
							break
						}
						n++
					}
				}
				cur.Close()
				if n != len(want) {
					errs <- fmt.Errorf("goroutine %d: %d rows, want %d", g, n, len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
