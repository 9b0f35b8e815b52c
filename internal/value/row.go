package value

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strings"
	"unsafe"
)

// The row encoding: how a store holds a version of a tuple of a known
// schema. The schema says each column's kind, so a row carries no arity
// and no kind tags: a NULL bitmap of ⌈w/8⌉ bytes (bit c&7 of byte c>>3 set
// when column c is NULL), then each non-NULL column by its kind — an INT as
// a zigzag varint, a FLOAT as its 8 bits (little-endian), a BOOL as one
// byte, a VARCHAR as a uvarint length and its bytes. A value must already
// have its column's kind (storage.Conform; an INT is widened into a FLOAT
// column), so the encoding loses nothing; a column of kind NULL is NULL in
// every row. The tuple encoding (AppendTuple) stays the format of the log,
// checkpoint images and the wire; AppendRowTuple transcodes to it.

// AppendRow appends t, a tuple of s, in the row encoding.
func AppendRow(dst []byte, s *Schema, t Tuple) []byte {
	at := len(dst)
	for range (len(s.cols) + 7) >> 3 {
		dst = append(dst, 0)
	}
	for c, v := range t {
		switch k := s.cols[c].Kind; {
		case v.kind == KindNull || k == KindNull:
			dst[at+c>>3] |= 1 << (c & 7)
		case k == KindInt:
			dst = binary.AppendVarint(dst, int64(v.num))
		case k == KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
		case k == KindBool:
			dst = append(dst, byte(v.num))
		default:
			dst = append(binary.AppendUvarint(dst, uint64(len(v.str))), v.str...)
		}
	}
	return dst
}

// EncodedLens returns the lengths AppendRow writes for t, a tuple of s,
// and AppendTuple writes for it once conformed to s.
func EncodedLens(s *Schema, t Tuple) (row, tuple int) {
	row, tuple = (len(s.cols)+7)>>3, 2+len(t)
	for c, v := range t {
		switch k := s.cols[c].Kind; {
		case v.kind == KindNull || k == KindNull:
		case k == KindInt:
			row, tuple = row+varintLen(v.num<<1^uint64(int64(v.num)>>63)), tuple+8
		case k == KindFloat:
			row, tuple = row+8, tuple+8
		case k == KindBool:
			row, tuple = row+1, tuple+1
		default:
			row, tuple = row+varintLen(uint64(len(v.str)))+len(v.str), tuple+4+len(v.str)
		}
	}
	return row, tuple
}

// varintLen is the length of x as a uvarint.
func varintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// rowNull reports whether column c of the row at the head of row is NULL.
func rowNull(row []byte, c int) bool { return row[c>>3]>>(c&7)&1 != 0 }

// field decodes the non-NULL value of kind k at the head of f, sharing its
// bytes: the bits Value.num holds for an INT, a FLOAT or a BOOL, or the
// bytes of a VARCHAR, and the value's length.
func field(k Kind, f []byte) (num uint64, str []byte, n int) {
	switch k {
	case KindInt:
		u, n := uvarint(f)
		return u>>1 ^ -(u & 1), nil, n
	case KindFloat:
		return binary.LittleEndian.Uint64(f), nil, 8
	case KindBool:
		return uint64(f[0]), nil, 1
	}
	l, n := uvarint(f)
	return 0, f[n : n+int(l)], n + int(l)
}

// uvarint is binary.Uvarint over a row the store wrote, so well formed:
// a loop short enough to inline.
func uvarint(f []byte) (x uint64, n int) {
	for i, b := range f {
		if b < 0x80 {
			return x | uint64(b)<<(7*i), i + 1
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	return x, len(f)
}

// rowValue returns the value of column c of the row of s, which starts at
// row[off:], and its length. A string aliases row's bytes.
func rowValue(s *Schema, row []byte, c, off int) (Value, int) {
	if rowNull(row, c) {
		return Null, 0
	}
	num, str, n := field(s.cols[c].Kind, row[off:])
	return Value{kind: s.cols[c].Kind, num: num, str: unsafe.String(unsafe.SliceData(str), len(str))}, n
}

// DecodeRow appends the tuple of s encoded at the head of row to dst (nil
// allocates one of the tuple's own width) and returns it with the row's
// length. Its strings share no bytes with row.
func DecodeRow(dst Tuple, s *Schema, row []byte) (Tuple, int) {
	if dst == nil {
		dst = make(Tuple, 0, len(s.cols))
	}
	off := (len(s.cols) + 7) >> 3
	for c := range s.cols {
		v, n := rowValue(s, row, c, off)
		v.str = strings.Clone(v.str)
		dst, off = append(dst, v), off+n
	}
	return dst, off
}

// RowFieldIs reports whether column c of the row of s at the head of row
// holds v as AppendValue encodes it: the same kind and the same bits, so
// -0 and +0 differ, NULL matches NULL and INT 1 never matches FLOAT 1.0.
func RowFieldIs(s *Schema, row []byte, c int, v Value) bool {
	off := (len(s.cols) + 7) >> 3
	for i := range c {
		_, n := rowValue(s, row, i, off)
		off += n
	}
	w, _ := rowValue(s, row, c, off)
	return w == v
}

// RowEqual reports whether the row of s at the head of row equals t under
// EqualTuples, copying no string out of row.
func RowEqual(s *Schema, row []byte, t Tuple) bool {
	off := (len(s.cols) + 7) >> 3
	for c := 0; len(t) == len(s.cols) && c < len(t); c++ {
		w, n := rowValue(s, row, c, off)
		if Compare(w, t[c]) != 0 {
			return false
		}
		off += n
	}
	return len(t) == len(s.cols)
}

// AppendRowTuple appends the row of s at the head of row in the tuple
// encoding: byte for byte what AppendTuple writes for its decode. A
// checkpoint transcodes every row, so the values are decoded inline, an
// INT's varint of up to three bytes (|x| < 2^20) without a loop.
func AppendRowTuple(dst []byte, s *Schema, row []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s.cols)))
	off := (len(s.cols) + 7) >> 3
	for c := range s.cols {
		if rowNull(row, c) {
			dst = append(dst, byte(KindNull))
			continue
		}
		switch k := s.cols[c].Kind; k {
		case KindInt:
			u, n := uint64(row[off]), 1
			if u >= 0x80 {
				if b := uint64(row[off+1]); b < 0x80 {
					u, n = u&0x7f|b<<7, 2
				} else if b2 := uint64(row[off+2]); b2 < 0x80 {
					u, n = u&0x7f|(b&0x7f)<<7|b2<<14, 3
				} else {
					u, n = uvarint(row[off:])
				}
			}
			dst, off = binary.BigEndian.AppendUint64(append(dst, byte(k)), u>>1^-(u&1)), off+n
		case KindFloat:
			dst, off = binary.BigEndian.AppendUint64(append(dst, byte(k)), binary.LittleEndian.Uint64(row[off:])), off+8
		case KindBool:
			dst, off = append(dst, byte(k), row[off]), off+1
		default:
			l, n := uvarint(row[off:])
			dst = binary.BigEndian.AppendUint32(append(dst, byte(k)), uint32(l))
			dst, off = append(dst, row[off+n:off+n+int(l)]...), off+n+int(l)
		}
	}
	return dst
}

// NewBatchFromRows is NewBatchFrom over tuples of schema kept in the row
// encoding: row i is the row at buf[offs[i]:], or a hole when offs[i] < 0.
// Columns take their schema's kinds. The vectors share one array of
// headers, and the payloads of a kind one array, each column a window of
// it capped at its rows: a point probe's one-row batch is a handful of
// allocations, whatever its width.
func NewBatchFromRows(schema *Schema, buf []byte, offs []int) *Batch {
	n, w := len(offs), len(schema.cols)
	b := &Batch{Schema: schema, Cols: make([]*Vec, w), Rows: n}
	vecs := make([]Vec, w)
	var fs, ss int // float and string columns; the rest hold I
	for c := range vecs {
		switch vecs[c].Kind = schema.cols[c].Kind; vecs[c].Kind {
		case KindFloat:
			fs++
		case KindString:
			ss++
		}
	}
	is, fl, st := make([]int64, (w-fs-ss)*n), make([]float64, fs*n), make([]string, ss*n)
	for c := range vecs {
		vec := &vecs[c]
		switch vec.Kind {
		case KindFloat:
			vec.F, fl = fl[:n:n], fl[n:]
		case KindString:
			vec.S, st = st[:n:n], st[n:]
		default:
			vec.I, is = is[:n:n], is[n:]
		}
		vec.Ranged, vec.Lo, vec.Hi = vec.Kind == KindInt, math.MaxInt64, math.MinInt64
		b.Cols[c] = vec
	}
	for i, off := range offs {
		for c, p := 0, off+(w+7)>>3; off >= 0 && c < w; c++ {
			vec := &vecs[c]
			if rowNull(buf[off:], c) {
				if vec.Null == nil {
					vec.Null = make([]uint64, (n+63)>>6)
				}
				vec.Null[i>>6] |= 1 << (i & 63)
				continue
			}
			x, str, m := field(vec.Kind, buf[p:])
			switch p += m; vec.Kind {
			case KindInt:
				vec.I[i], vec.Lo, vec.Hi = int64(x), min(vec.Lo, int64(x)), max(vec.Hi, int64(x))
			case KindFloat:
				vec.F[i] = math.Float64frombits(x)
			case KindBool:
				vec.I[i] = int64(x)
			default:
				vec.S[i] = string(str)
			}
		}
	}
	for c := range vecs {
		if vecs[c].Lo > vecs[c].Hi {
			vecs[c].Lo, vecs[c].Hi = 0, 0
		}
	}
	return b
}
