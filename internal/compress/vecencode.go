package compress

// Typed encode fast paths, the mirror of vecdecode.go: each codec can
// encode a column chunk straight from an unboxed vector — no value.Value per
// cell. EncodeVec is the single entry point the segment writer uses. Every
// typed encoder produces exactly the bytes the boxed Encode produces for the
// same values (including its equality rules: floats compare NaN == NaN and
// -0 == +0, dictionaries dedupe and sort the way value.Hash/value.Compare
// do), so a segment's bytes do not depend on which path rendered it. Chunks
// holding nulls, and List columns, go through the boxed Encode.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// Int64Encoder is the typed encode path for Int columns, and for Bool
// columns (k == value.Bool) stored 0/1.
type Int64Encoder interface {
	// EncodeInt64s appends the encoding of vals (of kind k) to dst.
	EncodeInt64s(dst []byte, k value.Kind, vals []int64) ([]byte, error)
}

// Float64Encoder is the typed encode path for Float columns.
type Float64Encoder interface {
	// EncodeFloat64s appends the encoding of vals to dst.
	EncodeFloat64s(dst []byte, vals []float64) ([]byte, error)
}

// BytesEncoder is the typed encode path for Str and Bytes columns: values
// are read from the vector's byte arena without string allocation.
type BytesEncoder interface {
	// EncodeBytesVec appends the encoding of rows [lo, hi) of v to dst.
	EncodeBytesVec(dst []byte, v *vec.Vector, lo, hi int) ([]byte, error)
}

// EncodeVec appends the encoding of rows [lo, hi) of v (a column of kind k)
// to dst. Codecs implementing the typed encoder for k encode without
// boxing; chunks with nulls, List columns and codec/kind pairs without a
// typed encoder route through the boxed Encode, so errors (a null in a
// block, a codec that rejects the kind) are the boxed path's too.
func EncodeVec(c Codec, dst []byte, k value.Kind, v *vec.Vector, lo, hi int) ([]byte, error) {
	typed := !v.Nulls.AnyIn(lo, hi)
	switch k {
	case value.Int, value.Bool:
		if e, ok := c.(Int64Encoder); ok && typed {
			return e.EncodeInt64s(dst, k, v.Int64s[lo:hi])
		}
	case value.Float:
		if e, ok := c.(Float64Encoder); ok && typed {
			return e.EncodeFloat64s(dst, v.Float64s[lo:hi])
		}
	case value.Str, value.Bytes:
		if e, ok := c.(BytesEncoder); ok && typed {
			return e.EncodeBytesVec(dst, v, lo, hi)
		}
	default:
		return c.Encode(dst, k, v.Boxed[lo:hi]) // List columns are stored boxed
	}
	vals := make([]value.Value, hi-lo)
	for i := range vals {
		vals[i] = v.Value(lo + i)
	}
	return c.Encode(dst, k, vals)
}

// appendInt64 appends the plain encoding of one Int (8 bytes) or Bool (one
// 0/1 byte) value, as value.AppendValue does.
func appendInt64(dst []byte, k value.Kind, x int64) []byte {
	if k == value.Bool {
		if x != 0 {
			return append(dst, 1)
		}
		return append(dst, 0)
	}
	return binary.LittleEndian.AppendUint64(dst, uint64(x))
}

// appendBytesVal appends the plain encoding of one Str/Bytes value.
func appendBytesVal(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// floatEq is value.Equal over two floats.
func floatEq(a, b float64) bool { return value.CompareFloats(a, b) == 0 }

// --- None ---

// EncodeInt64s implements Int64Encoder.
func (None) EncodeInt64s(dst []byte, k value.Kind, vals []int64) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, x := range vals {
		dst = appendInt64(dst, k, x)
	}
	return dst, nil
}

// EncodeFloat64s implements Float64Encoder.
func (None) EncodeFloat64s(dst []byte, vals []float64) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, x := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst, nil
}

// EncodeBytesVec implements BytesEncoder.
func (None) EncodeBytesVec(dst []byte, v *vec.Vector, lo, hi int) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(hi-lo))
	for i := lo; i < hi; i++ {
		dst = appendBytesVal(dst, v.BytesAt(i))
	}
	return dst, nil
}

// --- Delta ---

// appendDeltaWords appends the delta-of-delta stream of n raw words.
func appendDeltaWords(dst []byte, n int, word func(int) uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	var prev, prevDelta uint64
	for i := 0; i < n; i++ {
		cur := word(i)
		switch i {
		case 0:
			dst = binary.LittleEndian.AppendUint64(dst, cur)
		case 1:
			prevDelta = cur - prev
			dst = binary.AppendVarint(dst, int64(prevDelta))
		default:
			delta := cur - prev
			dst = binary.AppendVarint(dst, int64(delta-prevDelta))
			prevDelta = delta
		}
		prev = cur
	}
	return dst
}

// EncodeInt64s implements Int64Encoder.
func (Delta) EncodeInt64s(dst []byte, k value.Kind, vals []int64) ([]byte, error) {
	if k != value.Int {
		return nil, fmt.Errorf("compress: delta requires int or float column, got %s", k)
	}
	return appendDeltaWords(dst, len(vals), func(i int) uint64 { return uint64(vals[i]) }), nil
}

// EncodeFloat64s implements Float64Encoder.
func (Delta) EncodeFloat64s(dst []byte, vals []float64) ([]byte, error) {
	return appendDeltaWords(dst, len(vals), func(i int) uint64 { return math.Float64bits(vals[i]) }), nil
}

// --- RLE ---

// appendRuns appends the (run length, value) stream of n values, where
// eq(i, j) is value.Equal of values i and j and val appends value i.
func appendRuns(dst []byte, n int, eq func(i, j int) bool, val func([]byte, int) []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	for i := 0; i < n; {
		j := i + 1
		for j < n && eq(j, i) {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = val(dst, i)
		i = j
	}
	return dst
}

// EncodeInt64s implements Int64Encoder.
func (RLE) EncodeInt64s(dst []byte, k value.Kind, vals []int64) ([]byte, error) {
	return appendRuns(dst, len(vals),
		func(i, j int) bool { return vals[i] == vals[j] },
		func(dst []byte, i int) []byte { return appendInt64(dst, k, vals[i]) }), nil
}

// EncodeFloat64s implements Float64Encoder.
func (RLE) EncodeFloat64s(dst []byte, vals []float64) ([]byte, error) {
	return appendRuns(dst, len(vals),
		func(i, j int) bool { return floatEq(vals[i], vals[j]) },
		func(dst []byte, i int) []byte {
			return binary.LittleEndian.AppendUint64(dst, math.Float64bits(vals[i]))
		}), nil
}

// EncodeBytesVec implements BytesEncoder.
func (RLE) EncodeBytesVec(dst []byte, v *vec.Vector, lo, hi int) ([]byte, error) {
	return appendRuns(dst, hi-lo,
		func(i, j int) bool { return bytes.Equal(v.BytesAt(lo+i), v.BytesAt(lo+j)) },
		func(dst []byte, i int) []byte { return appendBytesVal(dst, v.BytesAt(lo+i)) }), nil
}

// --- Dict ---

// appendDict appends a dictionary block of n values given, per value, its
// index into distinct (first-seen order, nd entries). The dictionary is
// sorted exactly as the boxed Encode sorts it — the same sort.Slice over
// the same first-seen order with an equivalent comparison — so values that
// compare equal but were kept apart (NaN payloads) land in the same order.
func appendDict(dst []byte, n, nd int, ids []int32, less func(a, b int) bool, val func([]byte, int) []byte) []byte {
	perm := make([]int, nd)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return less(perm[a], perm[b]) })
	rank := make([]int, nd)
	for newIdx, oldIdx := range perm {
		rank[oldIdx] = newIdx
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(nd))
	for _, oldIdx := range perm {
		dst = val(dst, oldIdx)
	}
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(rank[id]))
	}
	return dst
}

// EncodeInt64s implements Int64Encoder.
func (Dict) EncodeInt64s(dst []byte, k value.Kind, vals []int64) ([]byte, error) {
	var distinct []int64
	seen := make(map[int64]int32)
	ids := make([]int32, len(vals))
	for i, x := range vals {
		id, ok := seen[x]
		if !ok {
			id = int32(len(distinct))
			seen[x] = id
			distinct = append(distinct, x)
		}
		ids[i] = id
	}
	return appendDict(dst, len(vals), len(distinct), ids,
		func(a, b int) bool { return distinct[a] < distinct[b] },
		func(dst []byte, i int) []byte { return appendInt64(dst, k, distinct[i]) }), nil
}

// EncodeFloat64s implements Float64Encoder.
func (Dict) EncodeFloat64s(dst []byte, vals []float64) ([]byte, error) {
	var distinct []float64
	buckets := make(map[uint64][]int32)
	ids := make([]int32, len(vals))
	for i, x := range vals {
		h, _ := value.FloatHashKey(x) // value.Hash's classes, then value.Equal
		id := int32(-1)
		for _, di := range buckets[h] {
			if floatEq(distinct[di], x) {
				id = di
				break
			}
		}
		if id < 0 {
			id = int32(len(distinct))
			buckets[h] = append(buckets[h], id)
			distinct = append(distinct, x)
		}
		ids[i] = id
	}
	return appendDict(dst, len(vals), len(distinct), ids,
		func(a, b int) bool { return value.CompareFloats(distinct[a], distinct[b]) < 0 },
		func(dst []byte, i int) []byte {
			return binary.LittleEndian.AppendUint64(dst, math.Float64bits(distinct[i]))
		}), nil
}

// EncodeBytesVec implements BytesEncoder.
func (Dict) EncodeBytesVec(dst []byte, v *vec.Vector, lo, hi int) ([]byte, error) {
	var distinct [][]byte // aliases v's arena
	seen := make(map[string]int32)
	ids := make([]int32, hi-lo)
	for i := lo; i < hi; i++ {
		b := v.BytesAt(i)
		id, ok := seen[string(b)]
		if !ok {
			id = int32(len(distinct))
			seen[string(b)] = id
			distinct = append(distinct, b)
		}
		ids[i-lo] = id
	}
	return appendDict(dst, hi-lo, len(distinct), ids,
		func(a, b int) bool { return bytes.Compare(distinct[a], distinct[b]) < 0 },
		func(dst []byte, i int) []byte { return appendBytesVal(dst, distinct[i]) }), nil
}

// --- BitPack ---

// EncodeInt64s implements Int64Encoder.
func (BitPack) EncodeInt64s(dst []byte, k value.Kind, vals []int64) ([]byte, error) {
	if k != value.Int {
		return nil, fmt.Errorf("compress: bitpack requires int column, got %s", k)
	}
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	if len(vals) == 0 {
		return dst, nil
	}
	lo, hi := vals[0], vals[0]
	for _, x := range vals {
		if x < lo {
			lo = x
		} else if x > hi {
			hi = x
		}
	}
	span := uint64(hi - lo)
	width := 0
	for span>>width != 0 {
		width++
	}
	dst = binary.AppendVarint(dst, lo)
	dst = append(dst, byte(width))
	if width == 0 {
		return dst, nil
	}
	var acc uint64
	bits := 0
	for _, x := range vals {
		acc |= uint64(x-lo) << bits
		bits += width
		for bits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			bits -= 8
		}
	}
	if bits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst, nil
}
