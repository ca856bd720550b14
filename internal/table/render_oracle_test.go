package table

// Byte-identity oracle for the columnar write path. The boxed render it
// replaced — layout steps over boxed rows through internal/transforms,
// blocks encoded column by column with each codec's boxed Encode, zone maps
// from boxed values — lives on here, in test code only. Every layout of
// DESIGN.md's glossary is rendered through both: Load, tail Insert,
// Reorganize and run folds must produce identical segment bytes and
// identical block metadata (offsets, row starts, cells, zone maps).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/catalog"
	"rodentstore/internal/compress"
	"rodentstore/internal/layout"
	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
	"rodentstore/internal/transforms"
	"rodentstore/internal/value"
)

// oracleRows is Traces data with ties on every key (so stable orderings and
// first-seen groupings are exercised) and float corner cases in lon.
func oracleRows(n int, seed int64) []value.Row {
	r := rand.New(rand.NewSource(seed))
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	rows := make([]value.Row, n)
	for i := range rows {
		lon := -71.09 + float64(r.Intn(40))*1e-4
		if r.Intn(10) == 0 {
			lon = special[r.Intn(len(special))]
		}
		rows[i] = value.Row{
			value.NewInt(int64(r.Intn(n / 2))),
			value.NewFloat(42.36 + float64(r.Intn(50))*1e-4),
			value.NewFloat(lon),
			value.NewString([]string{"car-1", "car-22", "", "car-3"}[r.Intn(4)]),
		}
	}
	return rows
}

// oracleSteps is the boxed layout pipeline (the old applySteps).
func oracleSteps(e *Engine, rel transforms.Relation, spec *layout.Spec, tailOnly bool) (transforms.Relation, error) {
	for _, st := range spec.Steps {
		var err error
		switch st.Kind {
		case layout.StepSelect:
			rel, err = transforms.Select(rel, st.Pred)
		case layout.StepProject:
			rel, err = transforms.Project(rel, st.Fields)
		case layout.StepOrderBy:
			if !tailOnly {
				rel, err = transforms.OrderBy(rel, st.Keys)
			}
		case layout.StepGroupBy:
			if !tailOnly {
				rel, err = transforms.GroupBy(rel, st.Fields)
			}
		case layout.StepLimit:
			rel = transforms.Limit(rel, st.N)
		case layout.StepFold:
			if e.Fold == FoldNestedLoop {
				rel, err = transforms.FoldNestedLoop(rel, st.Fields, st.By)
			} else {
				rel, err = transforms.FoldHash(rel, st.Fields, st.By)
			}
		case layout.StepUnfold:
			rel, err = transforms.Unfold(rel, st.Fields, st.Kinds)
		}
		if err != nil {
			return rel, err
		}
	}
	return rel, nil
}

// oracleSeg is one segment rendered by the boxed writer.
type oracleSeg struct {
	buf    []byte
	blocks []segment.BlockMeta
}

// writeBoxed appends one block the way the boxed segment writer did.
func (s *oracleSeg) writeBoxed(fields []value.Field, codecs []string, cell uint64, rows []value.Row) error {
	body := binary.LittleEndian.AppendUint64(nil, cell)
	body = binary.AppendUvarint(body, uint64(len(rows)))
	var zones []segment.ZoneMap
	for c, f := range fields {
		col := make([]value.Value, len(rows))
		for r, row := range rows {
			col[r] = row[c]
		}
		codec, err := compress.Lookup(codecs[c])
		if err != nil {
			return err
		}
		chunk, err := codec.Encode(nil, f.Type, col)
		if err != nil {
			return err
		}
		body = binary.LittleEndian.AppendUint32(body, uint32(len(chunk)))
		body = append(body, chunk...)
		if f.Type != value.Int && f.Type != value.Float {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range col {
			if x := v.Float(); x < lo {
				lo = x
			}
			if x := v.Float(); x > hi {
				hi = x
			}
		}
		zones = append(zones, segment.ZoneMap{Field: f.Name, Min: lo, Max: hi})
	}
	var start int64
	if n := len(s.blocks); n > 0 {
		start = s.blocks[n-1].RowStart + int64(s.blocks[n-1].Rows)
	}
	s.blocks = append(s.blocks, segment.BlockMeta{
		Off: uint64(len(s.buf)), Len: uint32(4 + len(body)), Rows: len(rows),
		RowStart: start, Cell: cell, Zones: zones,
	})
	s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(len(body)))
	s.buf = append(s.buf, body...)
	return nil
}

// oracleRender renders rows (of schema) under spec through the boxed path:
// steps, grid cells in curve order, then every segment's blocks.
func oracleRender(e *Engine, schema *value.Schema, rows []value.Row, spec *layout.Spec, tailOnly bool) ([]oracleSeg, error) {
	rel, err := oracleSteps(e, transforms.Relation{Schema: schema, Rows: rows}, spec, tailOnly)
	if err != nil {
		return nil, err
	}
	type run struct {
		cell uint64
		rows []value.Row
	}
	runs := []run{{segment.NoCell, rel.Rows}}
	if spec.Grid != nil && !tailOnly { // tails are stored ungridded
		bounds, err := transforms.ComputeGridBounds(rel, spec.Grid.Dims)
		if err != nil {
			return nil, err
		}
		byCell, err := transforms.GridAssign(rel, bounds)
		if err != nil {
			return nil, err
		}
		var distinct []uint64
		for cell := range byCell {
			distinct = append(distinct, cell)
		}
		order, err := transforms.CurveOrder(distinct, bounds, spec.Grid.Curve)
		if err != nil {
			return nil, err
		}
		runs = runs[:0]
		for _, cell := range order {
			runs = append(runs, run{cell, byCell[cell]})
		}
	}
	per := spec.RowsPerBlock
	if per <= 0 {
		per = segment.DefaultRowsPerBlock
	}
	var out []oracleSeg
	for _, def := range spec.Segments {
		proj, idx, err := rel.Schema.Project(def.Fields)
		if err != nil {
			return nil, err
		}
		var seg oracleSeg
		for _, r := range runs {
			for lo := 0; lo < len(r.rows); lo += per {
				hi := min(lo+per, len(r.rows))
				block := make([]value.Row, 0, hi-lo)
				for _, row := range r.rows[lo:hi] {
					pr := make(value.Row, len(idx))
					for i, c := range idx {
						pr[i] = row[c]
					}
					block = append(block, pr)
				}
				if err := seg.writeBoxed(proj.Fields, def.Codecs, r.cell, block); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, seg)
	}
	return out, nil
}

// extentBytes reads a rendered segment's stream back from the page file.
func extentBytes(t *testing.T, f *pager.File, meta segment.Meta) []byte {
	t.Helper()
	var out []byte
	for p := uint64(0); p < meta.ExtentPages; p++ {
		page, err := f.ReadPage(meta.ExtentStart + pager.PageID(p))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, page...)
	}
	return out[:meta.UsedBytes]
}

// sameSegments requires the rendered entries to equal the oracle's byte for
// byte, block metadata included.
func sameSegments(t *testing.T, what string, f *pager.File, got []catalog.SegmentEntry, want []oracleSeg) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d segments, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if b := extentBytes(t, f, got[i].Meta); !bytes.Equal(b, want[i].buf) {
			t.Errorf("%s: segment %d %v: bytes differ (%d vs oracle %d)", what, i, got[i].Fields, len(b), len(want[i].buf))
		}
		if !reflect.DeepEqual(got[i].Meta.Blocks, want[i].blocks) {
			t.Errorf("%s: segment %d %v: block metadata differs\n got    %+v\n oracle %+v", what, i, got[i].Fields, got[i].Meta.Blocks, want[i].blocks)
		}
	}
}

// storedRowsBoxed reads a table view back row by row (the old readAllRows).
func storedRowsBoxed(t *testing.T, e *Engine, tab *catalog.Table) ([]value.Row, *value.Schema) {
	t.Helper()
	cur, err := e.scanStored(tab, nil, algebra.True, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	return drain(t, cur), cur.Schema()
}

// glossaryLayouts covers every entry of DESIGN.md's layout glossary.
var glossaryLayouts = []string{
	"rows(Traces)",
	"cols(Traces)",
	"colgroup[lat,lon](Traces)",
	"project[lat,id](Traces)",
	"select[lat >= 42.362](Traces)",
	"orderby[lon](Traces)",
	"orderby[id, lat desc](Traces)",
	"groupby[id](Traces)",
	"groupby[lon](Traces)",
	"project[lat,lon](groupby[id](orderby[t](Traces)))",
	"grid[lat,t; 6,5](Traces)",
	"rowmajor(grid[lat,t; 6,5](Traces))",
	"zorder(grid[lat,t; 8,8](Traces))",
	"hilbert(grid[lat,t; 8,8](Traces))",
	"delta[lat,lon](zorder(grid[lat,t; 8,8](Traces)))",
	"rle[id](dict[lon](bitpack[t](orderby[id](Traces))))",
	"dict[id](delta[t](cols(Traces)))",
	"chunk[64](rows(Traces))",
	"chunk[50](delta[lat](grid[lat,t; 4,4](Traces)))",
	"fold[lat,lon; id](Traces)",
	"unfold(fold[lat; id](Traces))",
	"limit[77](orderby[lat](Traces))",
	"sizetiered[2](orderby[t](Traces))",
	"leveled[3](chunk[40](rle[id](groupby[id](Traces))))",
}

func TestRenderMatchesBoxedOracle(t *testing.T) {
	for _, expr := range glossaryLayouts {
		t.Run(expr, func(t *testing.T) {
			e, f, _ := newEngine(t)
			schema := tracesSchema()
			if err := e.Create("Traces", schema, expr); err != nil {
				t.Fatal(err)
			}
			spec, err := e.compile(expr)
			if err != nil {
				t.Fatal(err)
			}
			rows := oracleRows(400, 3)
			if err := e.Load("Traces", rows); err != nil {
				t.Fatal(err)
			}
			want, err := oracleRender(e, schema, rows, spec, false)
			if err != nil {
				t.Fatal(err)
			}
			tab, _ := e.cat.Get("Traces")
			sameSegments(t, "load", f, tab.Segments, want)

			if err := e.Insert("Traces", oracleRows(90, 4)); err != nil {
				// fold/unfold/limit layouts refuse tails; nothing more to check.
				return
			}
			tab, _ = e.cat.Get("Traces")
			want, err = oracleRender(e, schema, oracleRows(90, 4), spec, true)
			if err != nil {
				t.Fatal(err)
			}
			sameSegments(t, "insert", f, tab.Tails[0], want)
			if err := e.Insert("Traces", oracleRows(70, 5)); err != nil {
				t.Fatal(err)
			}

			// Reorganize (or, for leveled layouts, the level-0 fold) renders
			// the read-back content; the oracle renders the boxed read-back.
			tab, _ = e.cat.Get("Traces")
			if spec.Compaction != nil {
				view := *tab
				view.Segments, view.Runs = nil, nil
				want = oracleFold(t, e, &view)
				if err := e.Compact("Traces"); err != nil {
					t.Fatal(err)
				}
				tab, _ = e.cat.Get("Traces")
				sameSegments(t, "fold", f, tab.Runs[len(tab.Runs)-1].Segments, want)
				return
			}
			in, inSchema := storedRowsBoxed(t, e, tab)
			rspec := spec
			if inSchema.String() != schema.String() {
				// A projected layout re-renders against what is stored; one
				// whose steps need dropped fields cannot reorganize at all.
				if rspec, err = e.compileAgainst(expr, "Traces", inSchema); err != nil {
					if e.Reorganize("Traces") == nil {
						t.Fatal("reorganize succeeded where the stored form lacks fields")
					}
					return
				}
			}
			if err := e.Reorganize("Traces"); err != nil {
				t.Fatal(err)
			}
			want, err = oracleRender(e, inSchema, in, rspec, false)
			if err != nil {
				t.Fatal(err)
			}
			tab, _ = e.cat.Get("Traces")
			sameSegments(t, "reorganize", f, tab.Segments, want)
		})
	}
}

// oracleFold is the boxed render of a fold over view's runs and tails (the
// old renderRun): read back row by row, then the layout pipeline against
// the stored schema.
func oracleFold(t *testing.T, e *Engine, view *catalog.Table) []oracleSeg {
	t.Helper()
	in, inSchema := storedRowsBoxed(t, e, view)
	spec, err := e.compile(view.LayoutExpr)
	if err != nil {
		t.Fatal(err)
	}
	if logical, _ := view.Schema(); inSchema.String() != logical.String() {
		if spec, err = e.compileAgainst(view.LayoutExpr, view.Name, inSchema); err != nil {
			t.Fatal(err)
		}
	}
	want, err := oracleRender(e, inSchema, in, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRunFoldsMatchBoxedOracle drives size-tiered and leveled tables
// through several tail and level folds and checks every run a fold
// produces against the boxed render of the runs and tails it consumed.
func TestRunFoldsMatchBoxedOracle(t *testing.T) {
	for _, expr := range []string{
		"sizetiered[2](chunk[50](dict[id](orderby[lat](Traces))))",
		"leveled[2](chunk[100](delta[lat](groupby[id](Traces))))",
		"sizetiered[3](project[t,lat](cols(Traces)))",
	} {
		t.Run(expr, func(t *testing.T) {
			e, f, _ := newEngine(t)
			if err := e.Create("Traces", tracesSchema(), expr); err != nil {
				t.Fatal(err)
			}
			checked := 0
			for round := 0; round < 6; round++ {
				for b := 0; b < 2; b++ {
					if err := e.Insert("Traces", oracleRows(60, int64(10*round+b))); err != nil {
						t.Fatal(err)
					}
				}
				// The level-0 fold renders every current tail; the oracle
				// renders their boxed read-back.
				before, _ := e.cat.Get("Traces")
				view := *before
				view.Segments, view.Runs = nil, nil
				want := oracleFold(t, e, &view)
				if err := e.Compact("Traces"); err != nil {
					t.Fatal(err)
				}
				after, _ := e.cat.Get("Traces")
				// The new run is the newest level-1 run unless a cascade
				// consumed it in the same Compact.
				if last := after.Runs[len(after.Runs)-1]; last.Level == 1 {
					sameSegments(t, fmt.Sprintf("round %d tail fold", round), f, last.Segments, want)
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no tail fold survived to be checked")
			}
			// Cascaded level folds: re-render two adjacent runs through
			// renderRun and the oracle.
			tab, _ := e.cat.Get("Traces")
			if len(tab.Runs) < 2 {
				t.Fatalf("want ≥2 runs, have %+v", tab.Runs)
			}
			spec, _ := e.compile(tab.LayoutExpr)
			runs := tab.Runs[len(tab.Runs)-2:]
			view := *tab
			view.Segments, view.Runs, view.Tails = nil, runs, nil
			want := oracleFold(t, e, &view)
			run, err := e.renderRun(tab, spec, runs, nil, 9)
			if err != nil {
				t.Fatal(err)
			}
			sameSegments(t, "level fold", f, run.Segments, want)
		})
	}
}
