package value

import "strings"

// Tuple is one row: a fixed-width slice of values matching some Schema.
type Tuple []Value

// NewTuple builds a tuple from values.
func NewTuple(vs ...Value) Tuple { return Tuple(vs) }

// Ints builds an all-integer tuple; handy in tests and generators.
func Ints(vs ...int64) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		t[i] = NewInt(v)
	}
	return t
}

// Clone returns a copy of t with its own backing array.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Project returns the tuple restricted to the given column positions.
func (t Tuple) Project(idxs []int) Tuple {
	out := make(Tuple, len(idxs))
	for i, ix := range idxs {
		out[i] = t[ix]
	}
	return out
}

// Concat returns t followed by u in a fresh tuple (join output).
func (t Tuple) Concat(u Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(u))
	out = append(out, t...)
	return append(out, u...)
}

// CompareTuples orders a against b lexicographically.
func CompareTuples(a, b Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) == len(b):
		return 0
	case len(a) < len(b):
		return -1
	default:
		return 1
	}
}

// EqualTuples reports whether a and b hold equal values positionally.
func EqualTuples(a, b Tuple) bool { return CompareTuples(a, b) == 0 }

// CompareOn orders a against b on the given column positions.
func CompareOn(a, b Tuple, idxs []int) int {
	for _, ix := range idxs {
		if c := Compare(a[ix], b[ix]); c != 0 {
			return c
		}
	}
	return 0
}

// CompareOnDesc orders a against b on the given column positions with
// per-column direction (desc[i] reverses key i; nil = all ascending).
// This is THE sort-key comparator: Relation.SortOn and the k-way run
// merge both use it, so per-partition sorts and the coordinator merge
// can never disagree on ordering semantics.
func CompareOnDesc(a, b Tuple, idxs []int, desc []bool) int {
	for k, ix := range idxs {
		c := Compare(a[ix], b[ix])
		if c == 0 {
			continue
		}
		if desc != nil && k < len(desc) && desc[k] {
			return -c
		}
		return c
	}
	return 0
}

// Size returns the approximate in-memory footprint of t in bytes.
func (t Tuple) Size() int {
	n := 24 // slice header
	for _, v := range t {
		n += v.Size()
	}
	return n
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.Quoted())
	}
	b.WriteByte(')')
	return b.String()
}

// Key returns a canonical string key for the whole tuple, used by
// duplicate elimination and set operators. It uses the binary encoding,
// so distinct values always produce distinct keys.
func (t Tuple) Key() string { return string(AppendTuple(nil, t)) }

// AppendKeyOn appends the canonical key encoding of the given column
// positions to buf and returns it. Callers reuse the buffer across
// tuples: grouping loops probe their map with string(buf), which does not
// allocate.
func (t Tuple) AppendKeyOn(buf []byte, idxs []int) []byte {
	for _, ix := range idxs {
		buf = AppendValue(buf, t[ix])
	}
	return buf
}
