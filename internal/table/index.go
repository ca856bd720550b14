package table

import (
	"fmt"
	"math"
	"sort"

	"rodentstore/internal/algebra"
	"rodentstore/internal/btree"
	"rodentstore/internal/catalog"
	"rodentstore/internal/pager"
	"rodentstore/internal/txn"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// Secondary B+tree indexes (paper §1: "RodentStore will include both
// B+Trees as well as a variety of geo-spatial indices"; the paper explicitly
// does not innovate here, and neither do we). An index maps one field's
// values to row positions in the table's stored order.
//
// Indexes describe a specific rendering of the main segments: operations
// that rewrite the stored order (Reorganize, AlterLayout, Load) drop them;
// rebuild with CreateIndex. Tail-only Inserts do NOT drop indexes — an
// appended tail shifts no existing position, so the tree stays valid for
// the prefix it covers (IndexMeta.Rows) and IndexScan post-scans the
// unindexed suffix.

// CreateIndex builds a B+tree over the named field of the table's stored
// rows. The field must be stored by the current layout.
func (e *Engine) CreateIndex(tableName, field string) error {
	return e.withLock(tableName, txn.Exclusive, func() error {
		tab, err := e.cat.Get(tableName)
		if err != nil {
			return err
		}
		for _, idx := range tab.Indexes {
			if idx.Field == field {
				return fmt.Errorf("table: index on %s(%s) already exists", tableName, field)
			}
		}
		stored, err := storedSchema(tab)
		if err != nil {
			return err
		}
		fi := stored.Index(field)
		if fi < 0 {
			return fmt.Errorf("table: cannot index %q: not stored by layout %s", field, tab.LayoutExpr)
		}
		if stored.Fields[fi].Type == value.List {
			return fmt.Errorf("table: cannot index folded field %q", field)
		}
		tree, err := btree.New(e.file)
		if err != nil {
			return err
		}
		cur, err := e.scanStored(tab, []string{field}, algebra.True, true)
		if err != nil {
			return err
		}
		defer cur.Close()
		pos := uint64(0)
		for {
			row, ok, err := cur.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if !row[0].IsNull() {
				if err := tree.Insert(btree.EncodeKey(row[0]), pos); err != nil {
					return err
				}
			}
			pos++
		}
		// Copy-on-write: Put swaps the finished record in under the catalog
		// lock, so a concurrent checkpoint flush never encodes a half-updated
		// table (see catalog.Catalog.Get).
		work := *tab
		work.Indexes = append(append([]catalog.IndexMeta(nil), tab.Indexes...), catalog.IndexMeta{
			Field: field, Root: uint64(tree.Root()), Rows: tab.RowCount,
		})
		return e.cat.Put(&work)
	})
}

// DropIndex removes the index on the given field.
func (e *Engine) DropIndex(tableName, field string) error {
	return e.withLock(tableName, txn.Exclusive, func() error {
		tab, err := e.cat.Get(tableName)
		if err != nil {
			return err
		}
		for i, idx := range tab.Indexes {
			if idx.Field == field {
				work := *tab
				work.Indexes = append(append([]catalog.IndexMeta(nil), tab.Indexes[:i]...), tab.Indexes[i+1:]...)
				return e.cat.Put(&work)
			}
		}
		return fmt.Errorf("table: no index on %s(%s)", tableName, field)
	})
}

// Indexes lists the indexed fields of a table.
func (e *Engine) Indexes(tableName string) ([]string, error) {
	tab, err := e.cat.Get(tableName)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(tab.Indexes))
	for i, idx := range tab.Indexes {
		out[i] = idx.Field
	}
	return out, nil
}

// dropIndexes clears index metadata after a data rewrite (the tree pages
// themselves leak into the file until the next Reorganize reclaims extents;
// B+tree pages are single-page allocations, so they are simply abandoned —
// bounded by rebuild frequency and documented behavior).
func dropIndexes(tab *catalog.Table) { tab.Indexes = nil }

// IndexScan runs a range lookup through the index on field and returns the
// matching rows (post-filtered by pred, projected to fields). It reads only
// the blocks containing matching positions — for selective predicates this
// touches far fewer pages than a scan, at the cost of index node reads and
// seeks (the classic secondary-index trade the paper's Figure 2 probes with
// its R-tree).
func (e *Engine) IndexScan(tableName string, fields []string, pred algebra.Predicate, indexField string) (*Cursor, error) {
	var cur *Cursor
	err := e.withLock(tableName, txn.Shared, func() error {
		tab, err := e.cat.Get(tableName)
		if err != nil {
			return err
		}
		var root pager.PageID
		indexedRows := int64(0)
		found := false
		for _, idx := range tab.Indexes {
			if idx.Field == indexField {
				root = pager.PageID(idx.Root)
				indexedRows = idx.Rows
				found = true
			}
		}
		if !found {
			return fmt.Errorf("table: no index on %s(%s)", tableName, indexField)
		}
		lo, hi, loOpen, hiOpen, ok := pred.Bounds(indexField)
		if !ok {
			return fmt.Errorf("table: predicate does not constrain indexed field %q", indexField)
		}
		stored, err := storedSchema(tab)
		if err != nil {
			return err
		}
		fi := stored.Index(indexField)
		if fi < 0 {
			return fmt.Errorf("table: indexed field %q is not stored", indexField)
		}
		kind := stored.Fields[fi].Type
		tree := btree.Open(e.file, root)
		var positions []int64
		err = tree.Range(indexKey(lo, kind, false), indexKey(hi, kind, true), func(key []byte, v uint64) bool {
			positions = append(positions, int64(v))
			return true
		})
		if err != nil {
			return err
		}
		// Strict bounds re-checked by the predicate during materialization;
		// loOpen/hiOpen only widen the candidate set.
		_ = loOpen
		_ = hiOpen
		sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
		// Rows appended since the index was built (tail batches) are not in
		// the tree; add them as an unindexed suffix of candidates — the
		// predicate post-filter below rejects non-matches. Every tree hit is
		// below indexedRows, so the combined list stays sorted. This is one
		// candidate per tail row, so the suffix cost grows with tail size:
		// the merge policy (EnableAutoMerge) is what keeps it bounded. A
		// future refinement could scan the tail batches directly with the
		// predicate (zone maps apply) instead of materializing positions.
		for p := indexedRows; p < tab.RowCount; p++ {
			positions = append(positions, p)
		}

		// Fetch the raw rows at those positions (no predicate: filtering
		// would compact block offsets and break the position mapping), then
		// post-filter and project.
		outFields := fields
		if outFields == nil {
			outFields = stored.Names()
		}
		needSet := map[string]bool{}
		for _, f := range outFields {
			needSet[f] = true
		}
		for _, f := range pred.Fields() {
			needSet[f] = true
		}
		var decoded []string
		for _, f := range stored.Names() {
			if needSet[f] {
				decoded = append(decoded, f)
			}
		}
		raw, err := e.scanStored(tab, decoded, algebra.True, true)
		if err != nil {
			return err
		}
		defer raw.Close()
		b, err := raw.fetchPositions(positions)
		if err != nil {
			return err
		}
		outSchema, outIdx, err := raw.schema.Project(outFields)
		if err != nil {
			return err
		}
		filter, err := algebra.CompilePred(pred, raw.schema)
		if err != nil {
			return err
		}
		sel := filter.Filter(b, vec.FillSel(nil, b.Len()))
		final := vec.NewBatch(outSchema)
		for i, c := range outIdx {
			final.Cols[i].AppendSel(&b.Cols[c], sel)
		}
		if err := final.SetLen(len(sel)); err != nil {
			return err
		}
		cur = &Cursor{schema: outSchema}
		cur.finish(final)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cur, nil
}

// indexKey encodes a range bound (nil: unbounded) in the indexed field's
// kind, so a cross-numeric literal — a float bound on an int field, or the
// reverse — is compared against keys of the same encoding. A fractional
// bound widens to the enclosing integer; the predicate post-filter rejects
// the extra candidates.
func indexKey(v value.Value, kind value.Kind, upper bool) []byte {
	switch {
	case v.IsNull():
		return nil
	case kind == value.Int && v.Kind() == value.Float:
		f := math.Floor(v.Float())
		if upper {
			f = math.Ceil(v.Float())
		}
		switch {
		case math.IsNaN(f), !upper && f < math.MinInt64, upper && f >= math.MaxInt64:
			return nil
		case f >= math.MaxInt64:
			v = value.NewInt(math.MaxInt64)
		case f < math.MinInt64:
			v = value.NewInt(math.MinInt64)
		default:
			v = value.NewInt(int64(f))
		}
	case kind == value.Float && v.Kind() == value.Int:
		v = value.NewFloat(float64(v.Int()))
	}
	return btree.EncodeKey(v)
}

// fetchPositions gathers the rows at the given stored positions (ascending)
// into one batch, decoding each containing block once. The cursor must be a
// fresh, unfiltered serial scan.
func (c *Cursor) fetchPositions(positions []int64) (*vec.Batch, error) {
	out := vec.NewBatch(c.schema)
	n, pi := 0, 0
	var before int64
	var sel []int32
	for bi, ref := range c.blocks {
		if pi >= len(positions) {
			break
		}
		blockLo := before
		before += int64(blockRowCount(c.ex.parts[ref.part], ref.block))
		if positions[pi] >= before {
			continue
		}
		if err := c.load(bi); err != nil {
			return nil, err
		}
		sel = sel[:0]
		for ; pi < len(positions) && positions[pi] < before; pi++ {
			if off := positions[pi] - blockLo; off < int64(c.batch.Len()) {
				sel = append(sel, int32(off))
			}
		}
		for ci := range out.Cols {
			out.Cols[ci].AppendSel(&c.batch.Cols[ci], sel)
		}
		n += len(sel)
	}
	return out, out.SetLen(n)
}
