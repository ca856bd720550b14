package vec

// Batch-at-a-time relational operators for the write path: the layout
// pipeline's project, orderby, groupby and limit steps run over whole
// batches (columns picked, rows permuted by typed key comparisons,
// prefixes truncated) instead of over boxed rows. Orderings and groupings
// reproduce the boxed transforms exactly: comparisons follow
// value.Compare (nulls first, NaN before every number, -0 == +0), sorts
// are stable, and groups keep first-appearance order with the equality
// classes value.Hash + value.Equal induce.

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"rodentstore/internal/value"
)

// AnyIn reports whether any bit in [lo, hi) is set.
func (b *Bitmap) AnyIn(lo, hi int) bool {
	if b.set == 0 {
		return false
	}
	for i := lo; i < hi; i++ {
		if b.Get(i) {
			return true
		}
	}
	return false
}

// truncate clears every bit at or past n. The word slice is copied first:
// picked batches share their source's bitmaps.
func (b *Bitmap) truncate(n int) {
	if b.set == 0 {
		return
	}
	w := (n + 63) >> 6
	if w > len(b.bits) {
		w = len(b.bits)
	}
	b.bits = append([]uint64(nil), b.bits[:w]...)
	if n&63 != 0 && n>>6 < len(b.bits) {
		b.bits[n>>6] &= 1<<(n&63) - 1
	}
	b.set = 0
	for _, x := range b.bits {
		b.set += bits.OnesCount64(x)
	}
}

// appendRange appends rows [lo, hi) of src onto v, which must have src's
// kind.
func (v *Vector) appendRange(src *Vector, lo, hi int) {
	if hi <= lo {
		return
	}
	switch native(src.kind) {
	case value.Int:
		v.Int64s = append(v.Int64s, src.Int64s[lo:hi]...)
	case value.Float:
		v.Float64s = append(v.Float64s, src.Float64s[lo:hi]...)
	case value.Bytes:
		if len(v.Offs) == 0 {
			v.Offs = append(v.Offs, 0)
		}
		shift := uint64(len(v.Data)) - src.Offs[lo]
		v.Data = append(v.Data, src.Data[src.Offs[lo]:src.Offs[hi]]...)
		for _, off := range src.Offs[lo+1 : hi+1] {
			v.Offs = append(v.Offs, off+shift)
		}
	default:
		v.Boxed = append(v.Boxed, src.Boxed[lo:hi]...)
	}
	if src.Nulls.Any() {
		for i := lo; i < hi; i++ {
			if src.Nulls.Get(i) {
				v.Nulls.Set(v.n + i - lo)
			}
		}
	}
	v.n += hi - lo
}

// AppendBatch appends every row of src, whose columns must have b's kinds.
func (b *Batch) AppendBatch(src *Batch) error {
	if len(src.Cols) != len(b.Cols) {
		return fmt.Errorf("vec: batch arity %d != %d", len(src.Cols), len(b.Cols))
	}
	for c := range b.Cols {
		if src.Cols[c].kind != b.Cols[c].kind {
			return fmt.Errorf("vec: column %q: %s rows into a %s column",
				b.schema.Fields[c].Name, src.Cols[c].kind, b.Cols[c].kind)
		}
	}
	for c := range b.Cols {
		b.Cols[c].appendRange(&src.Cols[c], 0, src.n)
	}
	b.n += src.n
	return nil
}

// Columns returns pointers to the named columns (the key columns of an
// orderby or groupby step).
func (b *Batch) Columns(names []string) ([]*Vector, error) {
	out := make([]*Vector, len(names))
	for i, name := range names {
		c := b.schema.Index(name)
		if c < 0 {
			return nil, fmt.Errorf("vec: no column %q", name)
		}
		out[i] = &b.Cols[c]
	}
	return out, nil
}

// Take returns a new batch holding b's rows in perm order.
func (b *Batch) Take(perm []int32) *Batch {
	out := NewBatch(b.schema)
	for c := range b.Cols {
		out.Cols[c].AppendSel(&b.Cols[c], perm)
	}
	out.n = len(perm)
	return out
}

// Pick returns a batch over schema whose columns are b's columns idx
// (shared, not copied — the project step).
func (b *Batch) Pick(schema *value.Schema, idx []int) *Batch {
	out := &Batch{schema: schema, Cols: make([]Vector, len(idx)), n: b.n}
	for i, c := range idx {
		out.Cols[i] = b.Cols[c]
	}
	return out
}

// Truncate keeps the first n rows (the limit step); n < 0 or beyond the
// row count keeps every row.
func (b *Batch) Truncate(n int) {
	if n < 0 || n >= b.n {
		return
	}
	for c := range b.Cols {
		v := &b.Cols[c]
		switch native(v.kind) {
		case value.Int:
			v.Int64s = v.Int64s[:n]
		case value.Float:
			v.Float64s = v.Float64s[:n]
		case value.Bytes:
			v.Data = v.Data[:v.Offs[n]]
			v.Offs = v.Offs[:n+1]
		default:
			v.Boxed = v.Boxed[:n]
		}
		v.Nulls.truncate(n)
		v.n = n
	}
	b.n = n
}

// compareCells orders rows i and j of v under value.Compare.
func compareCells(v *Vector, i, j int) int {
	if v.Nulls.Any() {
		ni, nj := v.Nulls.Get(i), v.Nulls.Get(j)
		if ni || nj {
			switch {
			case ni && nj:
				return 0
			case ni:
				return -1
			default:
				return 1
			}
		}
	}
	switch native(v.kind) {
	case value.Int:
		return cmp.Compare(v.Int64s[i], v.Int64s[j])
	case value.Float:
		return value.CompareFloats(v.Float64s[i], v.Float64s[j])
	case value.Bytes:
		return bytes.Compare(v.BytesAt(i), v.BytesAt(j))
	default:
		return value.Compare(v.Boxed[i], v.Boxed[j])
	}
}

// SortPerm returns the permutation that stably sorts rows [0, n) by the key
// columns (descending where desc is set) — the order value.SortRows gives
// the boxed rows. Ties fall back to row position, so an unstable sort
// yields the stable order.
func SortPerm(keys []*Vector, desc []bool, n int) []int32 {
	perm := FillSel(make([]int32, 0, n), n)
	slices.SortFunc(perm, func(a, b int32) int {
		for k, col := range keys {
			c := compareCells(col, int(a), int(b))
			if c == 0 {
				continue
			}
			if k < len(desc) && desc[k] {
				return -c
			}
			return c
		}
		return cmp.Compare(a, b)
	})
	return perm
}

// GroupPerm returns the permutation that clusters rows [0, n) with equal key
// tuples, groups in first-appearance order and rows in input order within a
// group — the order transforms.GroupBy gives the boxed rows. Key tuples are
// bucketed by a hash with value.Hash's classes (a float hashes as the int it
// equals, otherwise by its bits, so distinct NaN payloads stay apart as
// they do there) and matched by value.Compare equality.
func GroupPerm(keys []*Vector, n int) []int32 {
	gids := make([]int32, n)
	firsts := make([]int32, 0, 16) // first row of each group
	buckets := make(map[uint64][]int32)
	for i := 0; i < n; i++ {
		var h uint64 = 14695981039346656037
		for _, col := range keys {
			h = mix64(h, boxedHashCell(col, i))
		}
		gid := int32(-1)
		for _, g := range buckets[h] {
			if equalCells(keys, i, int(firsts[g])) {
				gid = g
				break
			}
		}
		if gid < 0 {
			gid = int32(len(firsts))
			firsts = append(firsts, int32(i))
			buckets[h] = append(buckets[h], gid)
		}
		gids[i] = gid
	}
	// Counting sort by group id (stable within each group).
	starts := make([]int32, len(firsts)+1)
	for _, g := range gids {
		starts[g+1]++
	}
	for g := 1; g < len(starts); g++ {
		starts[g] += starts[g-1]
	}
	perm := make([]int32, n)
	for i, g := range gids {
		perm[starts[g]] = int32(i)
		starts[g]++
	}
	return perm
}

// equalCells reports whether rows i and j agree on every key column.
func equalCells(keys []*Vector, i, j int) bool {
	for _, col := range keys {
		if compareCells(col, i, j) != 0 {
			return false
		}
	}
	return true
}

// boxedHashCell hashes one key cell into value.Hash's equality classes. It
// differs from hashCell only for floats, which GroupTable canonicalizes
// (every NaN one key) and value.Hash does not.
func boxedHashCell(col *Vector, i int) uint64 {
	if native(col.kind) != value.Float || col.Nulls.Get(i) {
		return hashCell(col, i)
	}
	key, _ := value.FloatHashKey(col.Float64s[i])
	return splitmix64(key)
}
