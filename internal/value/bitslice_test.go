package value

import (
	"math"
	"math/rand"
	"testing"
)

// sliceValue reads row's offset back from s, one bit per slice.
func sliceValue(s *BitSlices, row int) uint64 {
	var d uint64
	for k, sl := range s.Slice {
		d |= (sl[row>>6] >> (row & 63) & 1) << k
	}
	return d
}

// TestSliceIntsMatchesDefinition: a sliced row holds x − Base in its bits,
// a row the live mask leaves out or a NULL holds zero, the range is the
// narrowest that covers the other rows, and a range past MaxSliceWidth
// bits is declined — on negative and extreme bases, over 0, 63, 64, 65
// and 1 000 rows, with and without a null bitmap.
func TestSliceIntsMatchesDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, rows := range []int{0, 1, 63, 64, 65, 1000} {
		for _, base := range []int64{0, -3, 1 << 40, math.MinInt64, math.MaxInt64 - 1<<16 + 1} {
			for _, width := range []int{0, 1, 7, 15, 16, 17} {
				vec := &Vec{Kind: KindInt, I: make([]int64, rows)}
				if r.Intn(2) == 0 {
					vec.Null = make([]uint64, (rows+63)/64)
				}
				xs := vec.I
				live := make([]uint64, (rows+63)/64)
				held := make([]uint64, len(live))
				lo, hi, any := int64(math.MaxInt64), int64(math.MinInt64), false
				for i := range xs {
					xs[i] = int64(uint64(base) + uint64(r.Int63n(1<<width)))
					switch r.Intn(6) {
					case 0:
						xs[i] = math.MinInt64 // a dead row's value has no say
					case 1:
						live[i>>6] |= 1 << (i & 63)
						if vec.Null != nil {
							vec.Null[i>>6] |= 1 << (i & 63) // nor has a NULL's
							xs[i] = math.MaxInt64
							continue
						}
						fallthrough
					default:
						live[i>>6] |= 1 << (i & 63)
						held[i>>6] |= 1 << (i & 63)
						lo, hi, any = min(lo, xs[i]), max(hi, xs[i]), true
					}
				}
				s := SliceInts(vec, live)
				if !any {
					lo, hi = 0, 0
				}
				span := uint64(hi) - uint64(lo)
				if span >= 1<<MaxSliceWidth {
					if s != nil {
						t.Fatalf("%d rows base %d width %d: span %d sliced", rows, base, width, span)
					}
					continue
				}
				if s == nil || s.Base != lo || s.Width() > MaxSliceWidth || span>>s.Width() != 0 || s.Width() > 0 && span>>(s.Width()-1) == 0 {
					t.Fatalf("%d rows base %d width %d: sliced %+v for range [%d, %d]", rows, base, width, s, lo, hi)
				}
				if s.Bytes() != int64(8*s.Width()*len(held)) {
					t.Errorf("Bytes %d for %d slices of %d words", s.Bytes(), s.Width(), len(held))
				}
				for i, x := range xs {
					want := uint64(0)
					if held[i>>6]>>(i&63)&1 != 0 {
						want = uint64(x) - uint64(lo)
						if !s.Covers(x) {
							t.Fatalf("held value %d not covered by base %d width %d", x, s.Base, s.Width())
						}
					}
					if got := sliceValue(s, i); got != want {
						t.Fatalf("%d rows base %d width %d: row %d holds %d, want %d", rows, base, width, i, got, want)
					}
				}
			}
		}
	}
}

// TestBitSlicesOffsetEdges: the range's ends are decided without
// overflow, at the ends of int64 too, and Set and Grow keep every other
// row's bits.
func TestBitSlicesOffsetEdges(t *testing.T) {
	cases := []struct {
		base  int64
		width int
		c     int64
		d     uint64
		where int
	}{
		{0, 7, -1, 0, -1}, {0, 7, 0, 0, 0}, {0, 7, 127, 127, 0}, {0, 7, 128, 0, 1},
		{-5, 3, -6, 0, -1}, {-5, 3, 2, 7, 0}, {-5, 3, 3, 0, 1},
		{math.MinInt64, 16, math.MinInt64, 0, 0}, {math.MinInt64, 16, math.MaxInt64, 0, 1},
		{math.MaxInt64 - 3, 2, math.MaxInt64, 3, 0}, {math.MaxInt64 - 3, 2, math.MinInt64, 0, -1},
		{math.MaxInt64 - 3, 1, math.MaxInt64, 0, 1}, {7, 0, 7, 0, 0}, {7, 0, 8, 0, 1},
	}
	for _, c := range cases {
		s := &BitSlices{Base: c.base, Slice: make([][]uint64, c.width)}
		if d, where := s.Offset(c.c); d != c.d || where != c.where {
			t.Errorf("base %d width %d: Offset(%d) = %d, %d; want %d, %d", c.base, c.width, c.c, d, where, c.d, c.where)
		}
	}

	s := SliceInts(&Vec{Kind: KindInt, I: []int64{-3, 4, -1, 0, 2}}, []uint64{0b11111})
	if s.Base != -3 || s.Width() != 3 {
		t.Fatalf("sliced %+v", s)
	}
	if added := s.Grow(3); added != 3*2*8 {
		t.Errorf("Grow added %d bytes", added)
	}
	s.Set(130, 4)
	s.Set(1, -3)
	for i, want := range map[int]uint64{0: 0, 1: 0, 2: 2, 3: 3, 4: 5, 130: 7, 129: 0} {
		if got := sliceValue(s, i); got != want {
			t.Errorf("row %d holds %d, want %d", i, got, want)
		}
	}
}
