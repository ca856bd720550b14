// Package transforms implements the storage algebra's transforms (paper
// §3.5-3.6) over in-memory relations. These are the reference semantics the
// physical layout engine must agree with; the segment renderer uses them to
// materialize nestings before writing pages.
//
// Fold is implemented twice, exactly as §4.2 discusses: FoldNestedLoop is
// the paper's Algorithm 1 (two nested for-loops, O(n²)); FoldHash is the
// "hash-join like algorithm" that builds a hash table in one pass and emits
// groups in a second. Both produce identical output (tested by property),
// and the fold-rendering benchmark quantifies the difference.
package transforms

import (
	"fmt"
	"math"
	"sort"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
	"rodentstore/internal/zorder"
)

// Relation is an in-memory table: a schema plus rows.
type Relation struct {
	Schema *value.Schema
	Rows   []value.Row
}

// Clone returns a relation with a copied row spine (values are shared).
func (r Relation) Clone() Relation {
	rows := make([]value.Row, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = row.Clone()
	}
	return Relation{Schema: r.Schema, Rows: rows}
}

// Project isolates the named fields (paper §3.5.1 project).
func Project(rel Relation, fields []string) (Relation, error) {
	schema, idx, err := rel.Schema.Project(fields)
	if err != nil {
		return Relation{}, err
	}
	rows := make([]value.Row, len(rel.Rows))
	for i, row := range rel.Rows {
		nr := make(value.Row, len(idx))
		for j, src := range idx {
			nr[j] = row[src]
		}
		rows[i] = nr
	}
	return Relation{Schema: schema, Rows: rows}, nil
}

// Append attaches extra named values to every row (paper §3.5.1 append, the
// reciprocal of project). compute receives the row and returns the new
// field's value.
func Append(rel Relation, field value.Field, compute func(value.Row) value.Value) (Relation, error) {
	fields := append(append([]value.Field(nil), rel.Schema.Fields...), field)
	schema, err := value.NewSchema(fields...)
	if err != nil {
		return Relation{}, err
	}
	rows := make([]value.Row, len(rel.Rows))
	for i, row := range rel.Rows {
		rows[i] = append(row.Clone(), compute(row))
	}
	return Relation{Schema: schema, Rows: rows}, nil
}

// Select keeps rows satisfying the predicate (paper §3.5.1 select).
func Select(rel Relation, pred algebra.Predicate) (Relation, error) {
	if err := pred.Validate(rel.Schema); err != nil {
		return Relation{}, err
	}
	var rows []value.Row
	for _, row := range rel.Rows {
		if pred.Eval(rel.Schema, row) {
			rows = append(rows, row)
		}
	}
	return Relation{Schema: rel.Schema, Rows: rows}, nil
}

// Partition horizontally splits the relation by a predicate (paper §3.5.1
// partition): matching rows first, the rest second.
func Partition(rel Relation, pred algebra.Predicate) (Relation, Relation, error) {
	if err := pred.Validate(rel.Schema); err != nil {
		return Relation{}, Relation{}, err
	}
	var yes, no []value.Row
	for _, row := range rel.Rows {
		if pred.Eval(rel.Schema, row) {
			yes = append(yes, row)
		} else {
			no = append(no, row)
		}
	}
	return Relation{Schema: rel.Schema, Rows: yes}, Relation{Schema: rel.Schema, Rows: no}, nil
}

// OrderBy stably sorts rows by the keys (paper §3.5.3 orderby).
func OrderBy(rel Relation, keys []algebra.OrderKey) (Relation, error) {
	cols := make([]int, len(keys))
	desc := make([]bool, len(keys))
	for i, k := range keys {
		c := rel.Schema.Index(k.Field)
		if c < 0 {
			return Relation{}, fmt.Errorf("transforms: orderby: unknown field %q", k.Field)
		}
		cols[i], desc[i] = c, k.Desc
	}
	out := rel.Clone()
	value.SortRows(out.Rows, cols, desc)
	return out, nil
}

// GroupBy clusters rows with equal key values contiguously, preserving the
// first-appearance order of groups and the relative order within each group
// (the paper's groupby clause on flat rows).
func GroupBy(rel Relation, fields []string) (Relation, error) {
	cols := make([]int, len(fields))
	for i, f := range fields {
		c := rel.Schema.Index(f)
		if c < 0 {
			return Relation{}, fmt.Errorf("transforms: groupby: unknown field %q", f)
		}
		cols[i] = c
	}
	key := func(row value.Row) value.Value {
		ks := make([]value.Value, len(cols))
		for i, c := range cols {
			ks[i] = row[c]
		}
		return value.NewList(ks...)
	}
	type group struct {
		k    value.Value
		rows []value.Row
	}
	var groups []group
	index := make(map[uint64][]int)
	for _, row := range rel.Rows {
		k := key(row)
		h := k.Hash()
		found := -1
		for _, gi := range index[h] {
			if value.Equal(groups[gi].k, k) {
				found = gi
				break
			}
		}
		if found < 0 {
			found = len(groups)
			groups = append(groups, group{k: k})
			index[h] = append(index[h], found)
		}
		groups[found].rows = append(groups[found].rows, row)
	}
	out := make([]value.Row, 0, len(rel.Rows))
	for _, g := range groups {
		out = append(out, g.rows...)
	}
	return Relation{Schema: rel.Schema, Rows: out}, nil
}

// Limit keeps the first n rows.
func Limit(rel Relation, n int) Relation {
	if n < 0 || n > len(rel.Rows) {
		n = len(rel.Rows)
	}
	return Relation{Schema: rel.Schema, Rows: rel.Rows[:n]}
}

// foldOutputSchema builds the folded schema [by..., folded list].
func foldOutputSchema(s *value.Schema, values, by []string) (*value.Schema, []int, []int, error) {
	byIdx := make([]int, len(by))
	var fields []value.Field
	for i, f := range by {
		c := s.Index(f)
		if c < 0 {
			return nil, nil, nil, fmt.Errorf("transforms: fold: unknown key field %q", f)
		}
		byIdx[i] = c
		fields = append(fields, s.Fields[c])
	}
	valIdx := make([]int, len(values))
	name := "folded"
	for i, f := range values {
		c := s.Index(f)
		if c < 0 {
			return nil, nil, nil, fmt.Errorf("transforms: fold: unknown value field %q", f)
		}
		valIdx[i] = c
		name += "_" + f
	}
	fields = append(fields, value.Field{Name: name, Type: value.List})
	schema, err := value.NewSchema(fields...)
	if err != nil {
		return nil, nil, nil, err
	}
	return schema, byIdx, valIdx, nil
}

// foldEntry extracts the nested element for one row: a scalar when one value
// field is folded, a list when several are.
func foldEntry(row value.Row, valIdx []int) value.Value {
	if len(valIdx) == 1 {
		return row[valIdx[0]]
	}
	vs := make([]value.Value, len(valIdx))
	for i, c := range valIdx {
		vs[i] = row[c]
	}
	return value.NewList(vs...)
}

// FoldNestedLoop is the paper's Algorithm 1: for each row, if its key has
// not been emitted, scan the whole relation again collecting matching
// values. O(n²) but allocation-light — the baseline the rendering
// experiment compares against.
func FoldNestedLoop(rel Relation, values, by []string) (Relation, error) {
	schema, byIdx, valIdx, err := foldOutputSchema(rel.Schema, values, by)
	if err != nil {
		return Relation{}, err
	}
	key := func(row value.Row) value.Value {
		ks := make([]value.Value, len(byIdx))
		for i, c := range byIdx {
			ks[i] = row[c]
		}
		return value.NewList(ks...)
	}
	var out []value.Row
	var outerKeys []value.Value // outerList of Algorithm 1
	seen := func(k value.Value) bool {
		for _, ok := range outerKeys {
			if value.Equal(ok, k) {
				return true
			}
		}
		return false
	}
	for _, r := range rel.Rows {
		k := key(r)
		if seen(k) {
			continue
		}
		var inner []value.Value // innerList of Algorithm 1
		for _, r2 := range rel.Rows {
			if value.Equal(key(r2), k) {
				inner = append(inner, foldEntry(r2, valIdx))
			}
		}
		outerKeys = append(outerKeys, k)
		row := make(value.Row, 0, len(byIdx)+1)
		for _, c := range byIdx {
			row = append(row, r[c])
		}
		row = append(row, value.NewList(inner...))
		out = append(out, row)
	}
	return Relation{Schema: schema, Rows: out}, nil
}

// FoldHash is the hash-join-like fold of §4.2: one pass builds a hash table
// keyed on A, a second emits each key with its collected B values. Output
// order (first appearance of each key; row order within groups) matches
// FoldNestedLoop exactly.
func FoldHash(rel Relation, values, by []string) (Relation, error) {
	schema, byIdx, valIdx, err := foldOutputSchema(rel.Schema, values, by)
	if err != nil {
		return Relation{}, err
	}
	type group struct {
		keyRow value.Row
		key    value.Value
		inner  []value.Value
	}
	var groups []group
	index := make(map[uint64][]int)
	for _, r := range rel.Rows {
		ks := make([]value.Value, len(byIdx))
		for i, c := range byIdx {
			ks[i] = r[c]
		}
		k := value.NewList(ks...)
		h := k.Hash()
		found := -1
		for _, gi := range index[h] {
			if value.Equal(groups[gi].key, k) {
				found = gi
				break
			}
		}
		if found < 0 {
			found = len(groups)
			groups = append(groups, group{keyRow: value.Row(ks), key: k})
			index[h] = append(index[h], found)
		}
		groups[found].inner = append(groups[found].inner, foldEntry(r, valIdx))
	}
	out := make([]value.Row, len(groups))
	for i, g := range groups {
		out[i] = append(g.keyRow.Clone(), value.NewList(g.inner...))
	}
	return Relation{Schema: schema, Rows: out}, nil
}

// Unfold reverses a fold produced with the given values/by fields,
// recovering the flat relation (rows ordered group by group).
func Unfold(rel Relation, values []string, valueTypes []value.Kind) (Relation, error) {
	n := rel.Schema.Arity()
	if n == 0 || rel.Schema.Fields[n-1].Type != value.List {
		return Relation{}, fmt.Errorf("transforms: unfold: input is not folded")
	}
	if len(values) != len(valueTypes) {
		return Relation{}, fmt.Errorf("transforms: unfold: %d names but %d types", len(values), len(valueTypes))
	}
	var fields []value.Field
	fields = append(fields, rel.Schema.Fields[:n-1]...)
	for i, v := range values {
		fields = append(fields, value.Field{Name: v, Type: valueTypes[i]})
	}
	schema, err := value.NewSchema(fields...)
	if err != nil {
		return Relation{}, err
	}
	var out []value.Row
	for _, row := range rel.Rows {
		nested := row[n-1]
		if nested.Kind() != value.List {
			return Relation{}, fmt.Errorf("transforms: unfold: folded field is %s", nested.Kind())
		}
		for _, entry := range nested.List() {
			nr := make(value.Row, 0, len(fields))
			nr = append(nr, row[:n-1]...)
			if len(values) == 1 {
				nr = append(nr, entry)
			} else {
				if entry.Kind() != value.List || entry.Len() != len(values) {
					return Relation{}, fmt.Errorf("transforms: unfold: entry arity mismatch")
				}
				nr = append(nr, entry.List()...)
			}
			out = append(out, nr)
		}
	}
	return Relation{Schema: schema, Rows: out}, nil
}

// Prejoin denormalizes two relations on a join attribute (paper §3.5.2).
// The joined attribute appears once; right-side name clashes get an r_
// prefix (matching algebra.Infer).
func Prejoin(left, right Relation, joinAttr string) (Relation, error) {
	li := left.Schema.Index(joinAttr)
	ri := right.Schema.Index(joinAttr)
	if li < 0 || ri < 0 {
		return Relation{}, fmt.Errorf("transforms: prejoin: attribute %q missing", joinAttr)
	}
	var fields []value.Field
	fields = append(fields, left.Schema.Fields...)
	var rightCols []int
	for c, f := range right.Schema.Fields {
		if c == ri {
			continue
		}
		if left.Schema.Index(f.Name) >= 0 {
			f.Name = "r_" + f.Name
		}
		fields = append(fields, f)
		rightCols = append(rightCols, c)
	}
	schema, err := value.NewSchema(fields...)
	if err != nil {
		return Relation{}, err
	}
	// Hash join on the attribute.
	buckets := make(map[uint64][]value.Row)
	for _, rr := range right.Rows {
		buckets[rr[ri].Hash()] = append(buckets[rr[ri].Hash()], rr)
	}
	var out []value.Row
	for _, lr := range left.Rows {
		for _, rr := range buckets[lr[li].Hash()] {
			if !value.Equal(lr[li], rr[ri]) {
				continue
			}
			nr := make(value.Row, 0, len(fields))
			nr = append(nr, lr...)
			for _, c := range rightCols {
				nr = append(nr, rr[c])
			}
			out = append(out, nr)
		}
	}
	return Relation{Schema: schema, Rows: out}, nil
}

// Transpose swaps the two outer levels of a nesting (paper §3.6):
// transpose([[1,2,3],[4,5,6]]) = [[1,4],[2,5],[3,6]]. All inner lists must
// have equal length.
func Transpose(n value.Value) (value.Value, error) {
	if n.Kind() != value.List {
		return value.Value{}, fmt.Errorf("transforms: transpose: not a list")
	}
	rows := n.List()
	if len(rows) == 0 {
		return value.NewList(), nil
	}
	width := -1
	for _, r := range rows {
		if r.Kind() != value.List {
			return value.Value{}, fmt.Errorf("transforms: transpose: element is %s", r.Kind())
		}
		if width < 0 {
			width = r.Len()
		} else if r.Len() != width {
			return value.Value{}, fmt.Errorf("transforms: transpose: ragged matrix (%d vs %d)", r.Len(), width)
		}
	}
	out := make([]value.Value, width)
	for j := 0; j < width; j++ {
		col := make([]value.Value, len(rows))
		for i, r := range rows {
			col[i] = r.List()[j]
		}
		out[j] = value.NewList(col...)
	}
	return value.NewList(out...), nil
}

// Chunk splits rows into consecutive chunks of n.
func Chunk(rel Relation, n int) ([][]value.Row, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transforms: chunk: size %d", n)
	}
	var out [][]value.Row
	for i := 0; i < len(rel.Rows); i += n {
		j := i + n
		if j > len(rel.Rows) {
			j = len(rel.Rows)
		}
		out = append(out, rel.Rows[i:j])
	}
	return out, nil
}

// GridBounds holds the discretization of one grid dimension: the value
// interval and cell count (stride = (Max-Min)/Cells, the paper's grid
// strides resolved against data statistics).
type GridBounds struct {
	Field    string
	Col      int
	Min, Max float64
	Cells    int
}

// Stride returns the cell width along this dimension.
func (b GridBounds) Stride() float64 {
	if b.Cells == 0 {
		return 0
	}
	return (b.Max - b.Min) / float64(b.Cells)
}

// CellOf maps a value to its cell index along this dimension, clamped to
// [0, Cells-1].
func (b GridBounds) CellOf(v float64) int {
	if b.Max <= b.Min {
		return 0
	}
	c := int(math.Floor((v - b.Min) / (b.Max - b.Min) * float64(b.Cells)))
	if c < 0 {
		c = 0
	}
	if c >= b.Cells {
		c = b.Cells - 1
	}
	return c
}

// CellRange returns the inclusive cell index interval overlapping [lo, hi].
func (b GridBounds) CellRange(lo, hi float64) (int, int) {
	return b.CellOf(lo), b.CellOf(hi)
}

// ComputeGridBounds derives per-dimension bounds from the data (min/max of
// each grid attribute).
func ComputeGridBounds(rel Relation, dims []algebra.GridDim) ([]GridBounds, error) {
	out := make([]GridBounds, len(dims))
	for i, d := range dims {
		c := rel.Schema.Index(d.Field)
		if c < 0 {
			return nil, fmt.Errorf("transforms: grid: unknown field %q", d.Field)
		}
		if t := rel.Schema.Fields[c].Type; t != value.Int && t != value.Float {
			return nil, fmt.Errorf("transforms: grid: field %q is %s, not numeric", d.Field, t)
		}
		b := GridBounds{Field: d.Field, Col: c, Cells: d.Cells, Min: math.Inf(1), Max: math.Inf(-1)}
		for _, row := range rel.Rows {
			if row[c].IsNull() {
				return nil, fmt.Errorf("transforms: grid: null value in dimension %q", d.Field)
			}
			v := row[c].Float()
			if v < b.Min {
				b.Min = v
			}
			if v > b.Max {
				b.Max = v
			}
		}
		if len(rel.Rows) == 0 {
			b.Min, b.Max = 0, 0
		}
		out[i] = b
	}
	return out, nil
}

// GridAssign partitions rows into cells. The returned map is keyed by the
// linearized row-major cell index; each cell keeps its rows in input order.
func GridAssign(rel Relation, bounds []GridBounds) (map[uint64][]value.Row, error) {
	cells := make(map[uint64][]value.Row)
	for _, row := range rel.Rows {
		idx, err := CellIndex(row, bounds)
		if err != nil {
			return nil, err
		}
		cells[idx] = append(cells[idx], row)
	}
	return cells, nil
}

// CellRun is one grid cell's rows [Lo, Hi) of a grid-ordered row stream.
type CellRun struct {
	Cell   uint64
	Lo, Hi int
}

// GridPartition is the batch form of ComputeGridBounds + GridAssign +
// CurveOrder, with their semantics and errors: it derives the grid's
// bounds from the batch's dimension columns, assigns every row its cell,
// and returns the permutation that groups the rows by cell — cells along
// the curve (paper §3.6), rows in input order within a cell — together
// with the cell runs of the permuted rows.
func GridPartition(b *vec.Batch, dims []algebra.GridDim, curve algebra.CurveKind) ([]int32, []CellRun, []GridBounds, error) {
	n := b.Len()
	bounds := make([]GridBounds, len(dims))
	coords := make([][]float64, len(dims))
	for i, d := range dims {
		c := b.Schema().Index(d.Field)
		if c < 0 {
			return nil, nil, nil, fmt.Errorf("transforms: grid: unknown field %q", d.Field)
		}
		col := &b.Cols[c]
		switch col.Kind() {
		case value.Int:
			coords[i] = make([]float64, n)
			for r, x := range col.Int64s[:n] {
				coords[i][r] = float64(x)
			}
		case value.Float:
			coords[i] = col.Float64s[:n]
		default:
			return nil, nil, nil, fmt.Errorf("transforms: grid: field %q is %s, not numeric", d.Field, col.Kind())
		}
		if col.Nulls.Any() {
			return nil, nil, nil, fmt.Errorf("transforms: grid: null value in dimension %q", d.Field)
		}
		bd := GridBounds{Field: d.Field, Col: c, Cells: d.Cells, Min: math.Inf(1), Max: math.Inf(-1)}
		for _, v := range coords[i] {
			if v < bd.Min {
				bd.Min = v
			}
			if v > bd.Max {
				bd.Max = v
			}
		}
		if n == 0 {
			bd.Min, bd.Max = 0, 0
		}
		bounds[i] = bd
	}
	ids := make([]uint64, n)
	rows := make(map[uint64]int) // cell -> row count
	for r := range ids {
		var idx uint64
		for i, bd := range bounds {
			idx = idx*uint64(bd.Cells) + uint64(bd.CellOf(coords[i][r]))
		}
		ids[r] = idx
		rows[idx]++
	}
	distinct := make([]uint64, 0, len(rows))
	for cell := range rows {
		distinct = append(distinct, cell)
	}
	order, err := CurveOrder(distinct, bounds, curve)
	if err != nil {
		return nil, nil, nil, err
	}
	cells := make([]CellRun, len(order))
	next := make(map[uint64]int, len(order)) // cell -> next output slot
	lo := 0
	for k, cell := range order {
		cells[k] = CellRun{Cell: cell, Lo: lo, Hi: lo + rows[cell]}
		next[cell] = lo
		lo += rows[cell]
	}
	perm := make([]int32, n)
	for r, cell := range ids {
		perm[next[cell]] = int32(r)
		next[cell]++
	}
	return perm, cells, bounds, nil
}

// CurveOrder arranges distinct grid cells along a cell-ordering curve
// (row-major, Z-order or Hilbert).
func CurveOrder(cells []uint64, bounds []GridBounds, curve algebra.CurveKind) ([]uint64, error) {
	maxCells := 0
	for _, b := range bounds {
		if b.Cells > maxCells {
			maxCells = b.Cells
		}
	}
	bits := 1
	for (1 << bits) < maxCells {
		bits++
	}
	curveKey := func(cell uint64) (uint64, error) {
		coords := CellCoords(cell, bounds)
		switch curve {
		case algebra.CurveRowMajor, "":
			return cell, nil
		case algebra.CurveZOrder:
			cs := make([]uint32, len(coords))
			for i, c := range coords {
				cs[i] = uint32(c)
			}
			return zorder.InterleaveN(cs, bits)
		case algebra.CurveHilbert:
			if len(coords) != 2 {
				return 0, fmt.Errorf("transforms: hilbert needs 2 dims")
			}
			return zorder.Hilbert2(uint(bits), uint32(coords[0]), uint32(coords[1])), nil
		default:
			return 0, fmt.Errorf("transforms: unknown curve %q", curve)
		}
	}
	type keyed struct {
		key  uint64
		cell uint64
	}
	ks := make([]keyed, 0, len(cells))
	for _, cell := range cells {
		k, err := curveKey(cell)
		if err != nil {
			return nil, err
		}
		ks = append(ks, keyed{k, cell})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]uint64, len(ks))
	for i, k := range ks {
		out[i] = k.cell
	}
	return out, nil
}

// CellIndex linearizes the cell coordinates of a row in row-major order
// (first dimension varies slowest).
func CellIndex(row value.Row, bounds []GridBounds) (uint64, error) {
	var idx uint64
	for _, b := range bounds {
		if row[b.Col].IsNull() {
			return 0, fmt.Errorf("transforms: grid: null value in dimension %q", b.Field)
		}
		idx = idx*uint64(b.Cells) + uint64(b.CellOf(row[b.Col].Float()))
	}
	return idx, nil
}

// CellCoords inverts CellIndex back to per-dimension cell coordinates.
func CellCoords(idx uint64, bounds []GridBounds) []int {
	out := make([]int, len(bounds))
	for i := len(bounds) - 1; i >= 0; i-- {
		out[i] = int(idx % uint64(bounds[i].Cells))
		idx /= uint64(bounds[i].Cells)
	}
	return out
}
