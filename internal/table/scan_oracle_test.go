package table

// Reference scan evaluator for the differential tests. It reads a table's
// stored rows in stored order straight through segment.Reader.ReadBlock —
// no pruning, no batches, no block executor — filters with Predicate.Eval
// and projects row by row. Aggregates fold each block into its own partial
// with EvalScalar and merge the partials in block order: the association
// the engine's float sums follow, so results compare bit for bit.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/catalog"
	"rodentstore/internal/segment"
	"rodentstore/internal/value"
)

// oracleBlock is one stored block: its rows under the full stored schema
// and its grid cell.
type oracleBlock struct {
	rows []value.Row
	cell uint64
}

// oracleBlocks reads every block of the table in stored order: the main
// rendering, the organized runs (oldest first), then the tail batches.
func oracleBlocks(t testing.TB, e *Engine, name string) (*value.Schema, []oracleBlock) {
	t.Helper()
	tab, err := e.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := storedSchema(tab)
	if err != nil {
		t.Fatal(err)
	}
	parts := [][]catalog.SegmentEntry{tab.Segments}
	for _, run := range tab.Runs {
		parts = append(parts, run.Segments)
	}
	parts = append(parts, tab.Tails...)
	var out []oracleBlock
	for _, entries := range parts {
		if len(entries) == 0 {
			continue
		}
		readers := make([]*segment.Reader, len(entries))
		loc := make([][2]int, stored.Arity()) // stored field -> (segment, column)
		for si, entry := range entries {
			var fields []value.Field
			for ci, f := range entry.Fields {
				fi := stored.Index(f)
				fields = append(fields, stored.Fields[fi])
				loc[fi] = [2]int{si, ci}
			}
			if readers[si], err = segment.NewReader(e.Source, entry.Meta, segment.Spec{Fields: fields, Codecs: entry.Codecs}); err != nil {
				t.Fatal(err)
			}
		}
		for b, bm := range entries[0].Meta.Blocks {
			cols := make([][][]value.Value, len(entries))
			for si, r := range readers {
				if cols[si], err = r.ReadBlock(b, nil); err != nil {
					t.Fatal(err)
				}
			}
			blk := oracleBlock{cell: bm.Cell}
			for i := 0; i < bm.Rows; i++ {
				row := make(value.Row, stored.Arity())
				for fi, l := range loc {
					row[fi] = cols[l[0]][l[1]][i]
				}
				blk.rows = append(blk.rows, row)
			}
			out = append(out, blk)
		}
	}
	return stored, out
}

// oracleScan evaluates a scan: the rows opts.Pred selects, projected to
// opts.Fields, in stored order — stably re-sorted when opts.Order is set —
// or the aggregate opts.Aggregate computes over them. Executor knobs
// (parallelism, pruning, I/O, quarantine) do not change the answer, so the
// oracle ignores them.
func oracleScan(t testing.TB, e *Engine, name string, opts ScanOptions) []value.Row {
	t.Helper()
	schema, blocks := oracleBlocks(t, e, name)
	if opts.Aggregate != nil {
		return oracleAggregate(t, *opts.Aggregate, schema, blocks, opts.Pred)
	}
	fields := opts.Fields
	if fields == nil {
		fields = schema.Names()
	}
	outSchema, outIdx, err := schema.Project(fields)
	if err != nil {
		t.Fatal(err)
	}
	var rows []value.Row
	for _, blk := range blocks {
		for _, row := range blk.rows {
			if opts.Pred.IsTrue() || opts.Pred.Eval(schema, row) {
				rows = append(rows, project(row, outIdx))
			}
		}
	}
	if len(opts.Order) > 0 {
		cols := make([]int, len(opts.Order))
		desc := make([]bool, len(opts.Order))
		for i, k := range opts.Order {
			cols[i], desc[i] = outSchema.Index(k.Field), k.Desc
		}
		value.SortRows(rows, cols, desc)
	}
	return rows
}

// oracleRowsFrom returns the stored rows, projected, from the first row
// that start accepts (given its block cell and stored position) onward —
// what getElement positions a cursor at.
func oracleRowsFrom(t testing.TB, e *Engine, name string, fields []string, start func(cell uint64, pos int64) bool) []value.Row {
	t.Helper()
	schema, blocks := oracleBlocks(t, e, name)
	if fields == nil {
		fields = schema.Names()
	}
	_, outIdx, err := schema.Project(fields)
	if err != nil {
		t.Fatal(err)
	}
	var rows []value.Row
	var pos int64
	started := false
	for _, blk := range blocks {
		for _, row := range blk.rows {
			if started = started || start(blk.cell, pos); started {
				rows = append(rows, project(row, outIdx))
			}
			pos++
		}
	}
	return rows
}

func project(row value.Row, idx []int) value.Row {
	out := make(value.Row, len(idx))
	for i, c := range idx {
		out[i] = row[c]
	}
	return out
}

// oracleGroups is one aggregation state: groups in first-seen order, each
// with one accumulator slot per item, indexed by a canonical key string.
type oracleGroups struct {
	index map[string]int
	keys  []value.Row
	accs  [][]aggAcc
}

func (gs *oracleGroups) group(key value.Row, items []aggItemExec) int {
	k := canonicalKey(key)
	if g, ok := gs.index[k]; ok {
		return g
	}
	accs := make([]aggAcc, len(items))
	for i := range accs {
		accs[i].grow(&items[i], 1)
	}
	gs.index[k] = len(gs.keys)
	gs.keys = append(gs.keys, key.Clone())
	gs.accs = append(gs.accs, accs)
	return len(gs.keys) - 1
}

// canonicalKey renders a key tuple so that -0 == +0 and every NaN is one
// value, matching the engine's grouping.
func canonicalKey(key value.Row) string {
	var sb strings.Builder
	for _, v := range key {
		if v.Kind() == value.Float {
			switch f := v.Float(); {
			case f == 0:
				sb.WriteString("f:0")
			case math.IsNaN(f):
				sb.WriteString("f:NaN")
			default:
				fmt.Fprintf(&sb, "f:%x", math.Float64bits(f))
			}
		} else {
			sb.WriteString(v.Kind().String() + ":" + v.String())
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

// oracleAggregate folds each block's selected rows into a partial, merges
// the partials in block order and returns one row per group, sorted by key.
func oracleAggregate(t testing.TB, spec AggSpec, schema *value.Schema, blocks []oracleBlock, pred algebra.Predicate) []value.Row {
	t.Helper()
	var items []aggItemExec
	for _, it := range spec.Items {
		ie := aggItemExec{fn: it.Func, expr: it.Expr, kind: value.Int}
		if it.Expr != nil {
			k, err := algebra.ExprType(it.Expr, schema)
			if err != nil {
				t.Fatal(err)
			}
			ie.kind = k
		}
		items = append(items, ie)
	}
	keyIdx := make([]int, len(spec.GroupBy))
	for i, f := range spec.GroupBy {
		keyIdx[i] = schema.Index(f)
	}
	final := oracleGroups{index: map[string]int{}}
	if len(keyIdx) == 0 {
		final.group(nil, items) // ungrouped: one group, even over no rows
	}
	for _, blk := range blocks {
		part := oracleGroups{index: map[string]int{}}
		for _, row := range blk.rows {
			if !pred.IsTrue() && !pred.Eval(schema, row) {
				continue
			}
			accs := part.accs[part.group(project(row, keyIdx), items)]
			for ii := range items {
				it, acc := &items[ii], &accs[ii]
				if it.expr == nil {
					acc.count[0]++
					continue
				}
				v, err := algebra.EvalScalar(it.expr, schema, row)
				if err != nil {
					t.Fatal(err)
				}
				if v.IsNull() {
					continue
				}
				switch it.fn {
				case AggCount:
					acc.count[0]++
				case AggSum, AggAvg:
					if it.kind == value.Float {
						acc.sumF[0] += v.Float()
					} else {
						acc.sumI[0] += v.Int()
					}
					acc.count[0]++
				case AggMin, AggMax:
					if it.kind == value.Float {
						acc.foldMinMaxF(0, v.Float(), v.Float(), 1)
					} else {
						acc.foldMinMaxI(0, v.Int(), v.Int(), 1)
					}
				}
			}
		}
		for lg, key := range part.keys {
			accs := final.accs[final.group(key, items)]
			for ii := range items {
				accs[ii].mergeGroup(&items[ii], 0, &part.accs[lg][ii], 0)
			}
		}
	}
	out := make([]value.Row, len(final.keys))
	for g, key := range final.keys {
		out[g] = append(value.Row{}, key...)
		for ii := range items {
			out[g] = append(out[g], items[ii].finalize(&final.accs[g][ii], 0))
		}
	}
	keys := make([]int, len(keyIdx))
	for i := range keys {
		keys[i] = i
	}
	value.SortRows(out, keys, nil)
	return out
}

// sameCell is exact equality: same kind and, for floats, the same bits
// (any NaN matches any NaN).
func sameCell(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == value.Float {
		x, y := a.Float(), b.Float()
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	return value.Equal(a, b)
}

// requireRows fails unless got equals want cell for cell under sameCell.
func requireRows(t testing.TB, what string, got, want []value.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d columns, oracle %d", what, i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			if !sameCell(got[i][c], want[i][c]) {
				t.Fatalf("%s: row %d col %d: %v, oracle %v", what, i, c, got[i][c], want[i][c])
			}
		}
	}
}
