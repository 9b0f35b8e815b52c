package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Binary encoding of values and tuples. The format is used (a) to ship
// tuples across the simulated message-passing network, (b) to write WAL
// records to stable storage and (c) as canonical hash/grouping keys. It is
// self-describing per value: a one-byte kind tag followed by the payload.

// AppendValue appends the binary encoding of v to buf and returns it.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool:
		b := byte(0)
		if v.num != 0 {
			b = 1
		}
		buf = append(buf, b)
	case KindInt, KindFloat:
		buf = binary.BigEndian.AppendUint64(buf, v.num)
	case KindString:
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.str)))
		buf = append(buf, v.str...)
	}
	return buf
}

// DecodeValue decodes one value from buf, returning it and the number of
// bytes consumed.
func DecodeValue(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return Null, 0, fmt.Errorf("value: decode on empty buffer")
	}
	k := Kind(buf[0])
	switch k {
	case KindNull:
		return Null, 1, nil
	case KindBool:
		if len(buf) < 2 {
			return Null, 0, fmt.Errorf("value: truncated bool")
		}
		return NewBool(buf[1] != 0), 2, nil
	case KindInt:
		if len(buf) < 9 {
			return Null, 0, fmt.Errorf("value: truncated int")
		}
		return NewInt(int64(binary.BigEndian.Uint64(buf[1:9]))), 9, nil
	case KindFloat:
		if len(buf) < 9 {
			return Null, 0, fmt.Errorf("value: truncated float")
		}
		return NewFloat(math.Float64frombits(binary.BigEndian.Uint64(buf[1:9]))), 9, nil
	case KindString:
		if len(buf) < 5 {
			return Null, 0, fmt.Errorf("value: truncated string header")
		}
		n := int(binary.BigEndian.Uint32(buf[1:5]))
		if len(buf) < 5+n {
			return Null, 0, fmt.Errorf("value: truncated string body (want %d bytes)", n)
		}
		return NewString(string(buf[5 : 5+n])), 5 + n, nil
	default:
		return Null, 0, fmt.Errorf("value: bad kind tag %d", buf[0])
	}
}

// AppendTuple appends the binary encoding of t (a uint16 arity followed by
// each value) to buf and returns it.
func AppendTuple(buf []byte, t Tuple) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(t)))
	for _, v := range t {
		buf = AppendValue(buf, v)
	}
	return buf
}

// AppendBatchRows appends logical rows [lo, hi) of b in the tuple encoding:
// byte for byte what AppendTuple writes for those rows of b.Materialize(),
// without the tuples. A row that is NULL in a column's bitmap is a bare
// NULL tag whatever payload sits under it, and so is every row of a
// kind-only column. It is how a plan root leaves the engine when its only
// reader is a serializer.
func AppendBatchRows(dst []byte, b *Batch, lo, hi int) []byte {
	w := len(b.Cols)
	// A tag and an 8-byte word cover every fixed-width value and a string's
	// length; string bytes grow the buffer as they come.
	dst = slices.Grow(dst, (hi-lo)*(2+9*w))
	for i := lo; i < hi; i++ {
		row := b.Row(i)
		dst = binary.BigEndian.AppendUint16(dst, uint16(w))
		for _, v := range b.Cols {
			if v.IsNull(row) || v.KindOnly() {
				dst = append(dst, byte(KindNull))
				continue
			}
			switch v.Kind {
			case KindBool:
				set := byte(0)
				if v.I[row] != 0 {
					set = 1
				}
				dst = append(dst, byte(KindBool), set)
			case KindInt:
				dst = binary.BigEndian.AppendUint64(append(dst, byte(KindInt)), uint64(v.I[row]))
			case KindFloat:
				dst = binary.BigEndian.AppendUint64(append(dst, byte(KindFloat)), math.Float64bits(v.F[row]))
			case KindString:
				dst = binary.BigEndian.AppendUint32(append(dst, byte(KindString)), uint32(len(v.S[row])))
				dst = append(dst, v.S[row]...)
			default:
				dst = append(dst, byte(KindNull))
			}
		}
	}
	return dst
}

// EncodedRows is a relation whose tuples are already in the tuple encoding,
// one after the other: what a statement hands a caller that would only
// serialize a Relation's tuples and drop them.
type EncodedRows struct {
	Schema *Schema
	N      int    // tuples in Bytes
	Bytes  []byte // each as AppendTuple writes it
}

// DecodeTuple decodes one tuple from buf, returning it and the number of
// bytes consumed.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	t, off, err := AppendDecodedTuple(nil, buf)
	if err != nil {
		return nil, 0, err
	}
	return t, off, nil
}

// AppendDecodedTuple decodes the tuple at the head of buf onto dst (nil
// allocates one of the tuple's own size), returning the extended slice
// and the number of bytes consumed.
func AppendDecodedTuple(dst []Value, buf []byte) ([]Value, int, error) {
	if len(buf) < 2 {
		return dst, 0, fmt.Errorf("value: truncated tuple header")
	}
	arity := int(binary.BigEndian.Uint16(buf))
	off := 2
	if dst == nil {
		// Every encoded value is at least 1 byte; cap the preallocation by
		// what the buffer could possibly hold so a hostile arity in a short
		// input cannot force a large allocation before the decode fails.
		dst = make([]Value, 0, min(arity, len(buf)-off))
	}
	for i := 0; i < arity; i++ {
		v, n, err := DecodeValue(buf[off:])
		if err != nil {
			return dst, 0, fmt.Errorf("value: tuple field %d: %w", i, err)
		}
		dst = append(dst, v)
		off += n
	}
	return dst, off, nil
}

// DecodeFlatTuples decodes count tuples from buf into one flat []Value
// backing array, returning them and the number of bytes consumed. Tuple
// i is a 3-index slice of the array, so appending to it reallocates that
// tuple instead of overwriting tuple i+1 (the discipline
// Batch.Materialize follows). It is the decode for a reply, whose
// tuples live and die together: one allocation per reply, not one per
// row. arity is the width every tuple must have, or negative to accept
// any (the array then grows as tuples arrive); what names the tuples in
// errors ("value: relation tuple").
func DecodeFlatTuples(buf []byte, count, arity int, what string) ([]Tuple, int, error) {
	// An encoded tuple is at least 2 bytes and an encoded value at least
	// 1: reserve no more than the buffer could hold, so a hostile count
	// cannot allocate gigabytes before the decode fails. Under that cap
	// the reservation is exact and the appends below never reallocate.
	tuples := make([]Tuple, 0, min(count, len(buf)/2+1))
	flat := make([]Value, 0, min(count*max(arity, 0), len(buf)))
	off := 0
	for i := 0; i < count; i++ {
		start := len(flat)
		var used int
		var err error
		if flat, used, err = AppendDecodedTuple(flat, buf[off:]); err != nil {
			return nil, 0, fmt.Errorf("%s %d: %w", what, i, err)
		}
		if got := len(flat) - start; arity >= 0 && got != arity {
			return nil, 0, fmt.Errorf("%s %d has arity %d, schema has %d", what, i, got, arity)
		}
		tuples = append(tuples, flat[start:len(flat):len(flat)])
		off += used
	}
	return tuples, off, nil
}

// FNV-1a, the one hash behind fragmentation, exchanges, joins and
// grouping. The pieces below are shared by the boxed entry points (Hash64,
// HashTuple) and the columnar one (Batch.HashCols), which is what keeps a
// batch slot and a row slot of one exchange agreeing on every bucket.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashKind starts a value's hash with its kind tag.
func hashKind(k Kind) uint64 { return (uint64(fnvOffset) ^ uint64(k)) * fnvPrime }

// hashNull is the hash of NULL: its kind tag and no payload.
var hashNull = hashKind(KindNull)

// primePow[k] is fnvPrime to the k-th power.
var primePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// hashWord hashes a kind tag followed by the eight payload bytes of a
// bool or number, low byte first.
func hashWord(k Kind, num uint64) uint64 { return hashBytes(hashKind(k), num) }

// hashBytes continues hash h over the eight bytes of num, low byte first.
// A zero byte's step is a bare multiply by the prime, so the zero high
// bytes of a small magnitude — the usual key — fold into one multiply by a
// power of it.
func hashBytes(h, num uint64) uint64 {
	n := (bits.Len64(num) + 7) >> 3
	for i := 0; i < n; i++ {
		h = (h ^ (num & 0xff)) * fnvPrime
		num >>= 8
	}
	return h * primePow[8-n]
}

// hashFloat respects numeric cross-kind equality: a float with an
// integral value hashes as that int.
func hashFloat(f float64) uint64 {
	if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
		return hashWord(KindInt, uint64(int64(f)))
	}
	return hashWord(KindFloat, math.Float64bits(f))
}

func hashString(s string) uint64 {
	h := hashKind(KindString)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// Hash64 returns a 64-bit FNV-1a hash of v's canonical encoding. Numeric
// cross-kind equality is respected: an int and a float that compare equal
// hash identically.
func Hash64(v Value) uint64 {
	switch v.kind {
	case KindBool, KindInt:
		return hashWord(v.kind, v.num)
	case KindFloat:
		return hashFloat(math.Float64frombits(v.num))
	case KindString:
		return hashString(v.str)
	}
	return hashNull
}

// HashTuple hashes the given columns of t, for partitioning and hash joins.
func HashTuple(t Tuple, idxs []int) uint64 {
	h := uint64(fnvOffset)
	for _, ix := range idxs {
		h = (h ^ Hash64(t[ix])) * fnvPrime
	}
	return h
}

// ---------- schema / relation wire encoding ----------

// AppendSchema appends the binary encoding of s to buf: a uint16 column
// count, then per column a kind byte and a length-prefixed name. It is
// used by the client/server wire protocol to ship result relations.
func AppendSchema(buf []byte, s *Schema) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(s.Len()))
	for i := 0; i < s.Len(); i++ {
		c := s.Column(i)
		buf = append(buf, byte(c.Kind))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(c.Name)))
		buf = append(buf, c.Name...)
	}
	return buf
}

// SchemaEncodedLen is how many bytes AppendSchema writes for s.
func SchemaEncodedLen(s *Schema) int {
	n := 2 + 3*s.Len()
	for i := 0; i < s.Len(); i++ {
		n += len(s.Column(i).Name)
	}
	return n
}

// EncodedBound bounds from above the tuple encoding of rows tuples of cols
// columns whose Size() is size: there a tuple weighs 24 bytes, 16 a value
// and its string bytes; encoded, 2 bytes, at most 9 a value — a tag and an
// 8-byte word cover every fixed-width value and a string's length — and
// the same string bytes. One reservation then holds the encoding.
func EncodedBound(size, rows, cols int) int { return max(0, size-rows*(22+7*cols)) }

// DecodeSchema decodes a schema from buf, returning it and the number of
// bytes consumed.
func DecodeSchema(buf []byte) (*Schema, int, error) {
	if len(buf) < 2 {
		return nil, 0, fmt.Errorf("value: truncated schema header")
	}
	n := int(binary.BigEndian.Uint16(buf))
	off := 2
	cols := make([]Column, 0, n)
	for i := 0; i < n; i++ {
		if len(buf) < off+3 {
			return nil, 0, fmt.Errorf("value: truncated schema column %d", i)
		}
		k := Kind(buf[off])
		if k > KindString {
			return nil, 0, fmt.Errorf("value: schema column %d has bad kind tag %d", i, buf[off])
		}
		nameLen := int(binary.BigEndian.Uint16(buf[off+1 : off+3]))
		off += 3
		if len(buf) < off+nameLen {
			return nil, 0, fmt.Errorf("value: truncated schema column %d name", i)
		}
		cols = append(cols, Column{Name: string(buf[off : off+nameLen]), Kind: k})
		off += nameLen
	}
	return NewSchema(cols...), off, nil
}

// AppendRelation appends the encoding of a relation (schema, then tuple
// batch) to buf and returns it.
func AppendRelation(buf []byte, r *Relation) []byte {
	buf = AppendSchema(buf, r.Schema)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Tuples)))
	for _, t := range r.Tuples {
		buf = AppendTuple(buf, t)
	}
	return buf
}

// EncodeRelation encodes a relation for the wire protocol.
func EncodeRelation(r *Relation) []byte { return AppendRelation(nil, r) }

// DecodeRelation decodes a relation from buf, returning it and the number
// of bytes consumed.
func DecodeRelation(buf []byte) (*Relation, int, error) {
	s, off, err := DecodeSchema(buf)
	if err != nil {
		return nil, 0, err
	}
	if len(buf) < off+4 {
		return nil, 0, fmt.Errorf("value: truncated relation tuple count")
	}
	n := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	tuples, used, err := DecodeFlatTuples(buf[off:], n, s.Len(), "value: relation tuple")
	if err != nil {
		return nil, 0, err
	}
	return &Relation{Schema: s, Tuples: tuples}, off + used, nil
}
