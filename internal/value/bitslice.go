package value

import (
	"math"
	"math/bits"
)

// MaxSliceWidth is the widest range, in bits, a BitSlices holds.
const MaxSliceWidth = 16

// BitSlices is a bit-sliced copy of an INT column: Slice[k] holds bit k of
// x − Base for every row, 64 rows a word, so a comparison with a constant
// reads len(Slice) words per 64 rows instead of 64 values (expr's
// bit-serial kernel). Every row it covers holds a value in [Base, Base +
// 2^len(Slice)); a row it does not cover — NULL, or one no reader may
// select — has zero bits, and the caller keeps it out of every answer, as
// the null bitmap does for a NULL.
type BitSlices struct {
	Base  int64
	Slice [][]uint64
}

// SliceInts slices the INT vector vec over its rows that live sets (a
// mask of (vec.Len()+63)/64 words; bits past the rows do not count) and
// that are not NULL, at the narrowest width their range allows, or
// returns nil when that is wider than MaxSliceWidth bits. It is two passes
// over the column, the range and then one transposition per 64 rows.
func SliceInts(vec *Vec, live []uint64) *BitSlices {
	held := func(w int) uint64 {
		m := live[w]
		if r := len(vec.I) - w<<6; r < 64 {
			m &= 1<<r - 1
		}
		return m &^ vec.NullWord(w)
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for w := range live {
		blk, m := vec.I[w<<6:min(w<<6+64, len(vec.I))], held(w)
		if m == ^uint64(0) {
			for _, x := range blk {
				lo, hi = min(lo, x), max(hi, x)
			}
			continue
		}
		for ; m != 0; m &= m - 1 {
			x := blk[bits.TrailingZeros64(m)]
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	if lo > hi { // no row holds a value
		lo, hi = 0, 0
	}
	span := uint64(hi) - uint64(lo) // exact: lo <= hi
	if span >= 1<<MaxSliceWidth {
		return nil
	}
	s := &BitSlices{Base: lo, Slice: make([][]uint64, bits.Len64(span))}
	for k := range s.Slice {
		s.Slice[k] = make([]uint64, len(live))
	}
	var d [64]uint64
	for w := range live {
		m := held(w)
		if m == 0 {
			continue // its words are zero already
		}
		d = [64]uint64{}
		for j, x := range vec.I[w<<6 : min(w<<6+64, len(vec.I))] {
			d[j] = (uint64(x) - uint64(lo)) & -(m >> j & 1)
		}
		s.setWord(w, &d)
	}
	return s
}

// setWord writes word w of every slice from the offsets d of its 64 rows.
// Eight rows at a time, each slice's eight bits are gathered into a byte
// by one multiply: bit k of row j sits at bit 8j of the rows' byte lanes
// shifted right by k, and the multiplier moves bit 8j to bit 56+j, no two
// of its partial products landing on one position.
func (s *BitSlices) setWord(w int, d *[64]uint64) {
	const lanes, gather = 0x0101010101010101, 0x0102040810204080
	var out [MaxSliceWidth]uint64
	for g := 0; g < 64; g += 8 {
		var lo, hi uint64 // byte j: the low and the high byte of d[g+j]
		for j := 7; j >= 0; j-- {
			lo, hi = lo<<8|d[g+j]&0xff, hi<<8|d[g+j]>>8
		}
		for k := range s.Slice {
			src := lo
			if k >= 8 {
				src = hi
			}
			out[k] |= (src >> (k & 7) & lanes * gather >> 56) << g
		}
	}
	for k, sl := range s.Slice {
		sl[w] = out[k]
	}
}

// Width is the number of slices: the range covers 2^Width values.
func (s *BitSlices) Width() int { return len(s.Slice) }

// Offset places c against the range: where is -1 when c < Base, 1 when c
// >= Base + 2^Width, and 0 otherwise, with d = c − Base. Both ends are
// decided before subtracting, so nothing overflows.
func (s *BitSlices) Offset(c int64) (d uint64, where int) {
	if c < s.Base {
		return 0, -1
	}
	if d = uint64(c) - uint64(s.Base); d>>len(s.Slice) != 0 {
		return 0, 1
	}
	return d, 0
}

// Covers reports whether x lies in the range.
func (s *BitSlices) Covers(x int64) bool {
	_, where := s.Offset(x)
	return where == 0
}

// Set writes row's bits for x, which the range must cover; x = Base
// clears them, as for a NULL.
func (s *BitSlices) Set(row int, x int64) {
	d, w, j := uint64(x)-uint64(s.Base), row>>6, uint(row&63)
	for k, sl := range s.Slice {
		sl[w] = sl[w]&^(1<<j) | (d>>k&1)<<j
	}
}

// Grow extends every slice to words words, the new ones zero, and returns
// the bytes that added.
func (s *BitSlices) Grow(words int) int64 {
	var added int64
	for k, sl := range s.Slice {
		if n := words - len(sl); n > 0 {
			s.Slice[k] = append(sl, make([]uint64, n)...)
			added += 8 * int64(n)
		}
	}
	return added
}

// Bytes is the slices' footprint.
func (s *BitSlices) Bytes() int64 {
	if len(s.Slice) == 0 {
		return 0
	}
	return 8 * int64(len(s.Slice)*len(s.Slice[0]))
}
