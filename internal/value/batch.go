package value

import "sync"

// Vec is a typed column vector: one column of a Batch, stored as a flat
// slice of the column's native representation so kernels can loop over
// machine words instead of tagged unions. Exactly one of I/F/S is
// populated, chosen by Kind (booleans ride in I as 0/1). Null is nil
// when the column has no NULLs — the dense case — so kernels can skip
// the per-row NULL test entirely.
type Vec struct {
	Kind Kind
	Null []bool    // nil = no NULLs anywhere in the column
	I    []int64   // KindInt and KindBool payloads
	F    []float64 // KindFloat payloads
	S    []string  // KindString payloads
}

// Len returns the number of physical rows in the vector.
func (v *Vec) Len() int {
	switch v.Kind {
	case KindFloat:
		return len(v.F)
	case KindString:
		return len(v.S)
	default:
		return len(v.I)
	}
}

// Value materializes row i of the vector as a tagged scalar.
func (v *Vec) Value(i int) Value {
	if v.Null != nil && v.Null[i] {
		return Null
	}
	switch v.Kind {
	case KindBool:
		return NewBool(v.I[i] != 0)
	case KindInt:
		return NewInt(v.I[i])
	case KindFloat:
		return NewFloat(v.F[i])
	case KindString:
		return NewString(v.S[i])
	default:
		return Null
	}
}

// IsNull reports whether row i of the vector is NULL.
func (v *Vec) IsNull(i int) bool { return v.Null != nil && v.Null[i] }

// Gather builds a dense vector holding the given physical rows of v, in
// order — the column-wise copy a batch join uses to assemble its output.
func (v *Vec) Gather(idxs []int32) *Vec {
	out := &Vec{Kind: v.Kind}
	if v.Null != nil {
		out.Null = make([]bool, len(idxs))
		for i, r := range idxs {
			out.Null[i] = v.Null[r]
		}
	}
	switch v.Kind {
	case KindFloat:
		out.F = make([]float64, len(idxs))
		for i, r := range idxs {
			out.F[i] = v.F[r]
		}
	case KindString:
		out.S = make([]string, len(idxs))
		for i, r := range idxs {
			out.S[i] = v.S[r]
		}
	default:
		out.I = make([]int64, len(idxs))
		for i, r := range idxs {
			out.I[i] = v.I[r]
		}
	}
	return out
}

// Batch is a columnar slice of a relation: per-column vectors plus a
// selection vector of the physical row indices that are logically
// present. Sel == nil means every physical row is selected (the dense
// case). Operators narrow Sel instead of copying tuples; materialization
// back to row form is deferred to the plan root.
type Batch struct {
	Schema *Schema
	Cols   []*Vec
	Sel    []int32 // selected physical rows, ascending; nil = all
	Rows   int     // physical row count of every column
}

// Len returns the number of selected (logical) rows.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.Rows
}

// Row returns the physical row index of logical row i.
func (b *Batch) Row(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// Value materializes column col of logical row i.
func (b *Batch) Value(col, i int) Value { return b.Cols[col].Value(b.Row(i)) }

// Project returns a batch exposing only the given columns (a pure
// remap: vectors and the selection vector are shared, nothing copies).
func (b *Batch) Project(idxs []int, schema *Schema) *Batch {
	cols := make([]*Vec, len(idxs))
	for i, ix := range idxs {
		cols[i] = b.Cols[ix]
	}
	return &Batch{Schema: schema, Cols: cols, Sel: b.Sel, Rows: b.Rows}
}

// Materialize converts the selected rows back to a row-oriented
// Relation, in selection order, using one flat backing array for all
// tuples (the PR-4 allocation discipline).
func (b *Batch) Materialize() *Relation {
	n := b.Len()
	w := len(b.Cols)
	out := &Relation{Schema: b.Schema, Tuples: make([]Tuple, n)}
	if n == 0 || w == 0 {
		for i := range out.Tuples {
			out.Tuples[i] = Tuple{}
		}
		return out
	}
	flat := make([]Value, n*w)
	for i := 0; i < n; i++ {
		row := b.Row(i)
		t := flat[i*w : (i+1)*w : (i+1)*w]
		for c, vec := range b.Cols {
			t[c] = vec.Value(row)
		}
		out.Tuples[i] = t
	}
	return out
}

// AppendKey appends the canonical comparison key of the given columns of
// physical row `row` to buf, byte-compatible with Tuple.AppendKeyOn.
func (b *Batch) AppendKey(buf []byte, row int, idxs []int) []byte {
	for _, ix := range idxs {
		buf = AppendValue(buf, b.Cols[ix].Value(row))
	}
	return buf
}

// HashRow hashes the given columns of physical row `row`, producing the
// same value as HashTuple over the materialized tuple — the invariant
// that keeps a columnar hash exchange bucket-aligned with the row one.
func (b *Batch) HashRow(row int, idxs []int) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, ix := range idxs {
		h = (h ^ Hash64(b.Cols[ix].Value(row))) * prime64
	}
	return h
}

// ConcatBatches concatenates the selected rows of the given batches (in
// order) into one dense batch. Inputs are consumed: their selection
// vectors return to the pool.
func ConcatBatches(schema *Schema, batches []*Batch) *Batch {
	w := schema.Len()
	n := 0
	for _, b := range batches {
		n += b.Len()
	}
	out := &Batch{Schema: schema, Cols: make([]*Vec, w), Rows: n}
	for c := 0; c < w; c++ {
		// The column kind comes from the first batch contributing rows;
		// sibling batches of one schema always agree (same cache layout).
		kind := schema.Column(c).Kind
		for _, b := range batches {
			if b.Len() > 0 {
				kind = b.Cols[c].Kind
				break
			}
		}
		vec := &Vec{Kind: kind}
		switch kind {
		case KindFloat:
			vec.F = make([]float64, 0, n)
		case KindString:
			vec.S = make([]string, 0, n)
		default:
			vec.I = make([]int64, 0, n)
		}
		for _, b := range batches {
			bn := b.Len()
			for i := 0; i < bn; i++ {
				row := b.Row(i)
				src := b.Cols[c]
				if src.IsNull(row) {
					if vec.Null == nil {
						vec.Null = make([]bool, n)
					}
					vec.Null[vec.appendZero()] = true
					continue
				}
				switch kind {
				case KindFloat:
					vec.F = append(vec.F, src.F[row])
				case KindString:
					vec.S = append(vec.S, src.S[row])
				default:
					vec.I = append(vec.I, src.I[row])
				}
			}
		}
		out.Cols[c] = vec
	}
	for _, b := range batches {
		if b.Sel != nil {
			PutSel(b.Sel)
			b.Sel = nil
		}
	}
	return out
}

// appendZero appends a zero payload slot to the vector and returns its
// index — the NULL case of a concat append.
func (v *Vec) appendZero() int {
	switch v.Kind {
	case KindFloat:
		v.F = append(v.F, 0)
		return len(v.F) - 1
	case KindString:
		v.S = append(v.S, "")
		return len(v.S) - 1
	default:
		v.I = append(v.I, 0)
		return len(v.I) - 1
	}
}

// Size returns the approximate in-memory footprint of the selected rows
// in bytes, matching what Materialize()'s Relation would report.
func (b *Batch) Size() int {
	n := b.Len()
	if n == 0 {
		return 0
	}
	// Per-row slice header + per-value base cost.
	total := n * (24 + 16*len(b.Cols))
	for _, vec := range b.Cols {
		if vec.Kind != KindString {
			continue
		}
		if b.Sel != nil {
			for _, r := range b.Sel {
				total += len(vec.S[r])
			}
		} else {
			for _, s := range vec.S {
				total += len(s)
			}
		}
	}
	return total
}

// Set stores x at physical row i, in place, widening an int into a float
// column. It reports false, leaving the row as it was, when x does not
// fit the vector: a kind the column does not hold, or a NULL when the
// vector carries no null bitmap.
func (v *Vec) Set(i int, x Value) bool {
	if x.IsNull() {
		if v.Null == nil {
			return false
		}
		v.Null[i] = true
		return true
	}
	switch v.Kind {
	case KindBool:
		if x.Kind() != KindBool {
			return false
		}
		v.I[i] = 0
		if x.Bool() {
			v.I[i] = 1
		}
	case KindInt:
		if x.Kind() != KindInt {
			return false
		}
		v.I[i] = x.Int()
	case KindFloat:
		if k := x.Kind(); k != KindFloat && k != KindInt {
			return false
		}
		v.F[i] = x.Float()
	case KindString:
		if x.Kind() != KindString {
			return false
		}
		v.S[i] = x.Str()
	default:
		// All-NULL column with no declared kind: a non-NULL value
		// contradicts the inference.
		return false
	}
	if v.Null != nil {
		v.Null[i] = false
	}
	return true
}

// NewBatchFrom builds a columnar batch from row-oriented tuples. Every
// column must be uniform: each value NULL or of one consistent kind
// (the storage layer's Conform guarantees this for stored relations).
// A nil tuple is a hole: its row keeps zero payloads, and the caller
// must keep it out of every selection (the OFM column cache maps free
// store slots this way). Returns nil when a column is heterogeneous or
// a tuple is short — the caller falls back to the row path.
func NewBatchFrom(schema *Schema, tuples []Tuple) *Batch {
	w := schema.Len()
	n := len(tuples)
	cols := make([]*Vec, w)
	for c := 0; c < w; c++ {
		kind := schema.Column(c).Kind
		if kind == KindNull {
			// Infer from the first non-NULL value.
			for _, t := range tuples {
				if c < len(t) && !t[c].IsNull() {
					kind = t[c].Kind()
					break
				}
			}
		}
		vec := &Vec{Kind: kind}
		switch kind {
		case KindFloat:
			vec.F = make([]float64, n)
		case KindString:
			vec.S = make([]string, n)
		default:
			vec.I = make([]int64, n)
		}
		for i, t := range tuples {
			if t == nil {
				continue
			}
			if c >= len(t) {
				return nil
			}
			v := t[c]
			if v.IsNull() {
				if vec.Null == nil {
					vec.Null = make([]bool, n)
				}
				vec.Null[i] = true
				continue
			}
			// Vec.Set's kind switch, spelled out: a call per value costs
			// the transposition a third of its throughput.
			switch kind {
			case KindBool:
				if v.Kind() != KindBool {
					return nil
				}
				if v.Bool() {
					vec.I[i] = 1
				}
			case KindInt:
				if v.Kind() != KindInt {
					return nil
				}
				vec.I[i] = v.Int()
			case KindFloat:
				if k := v.Kind(); k != KindFloat && k != KindInt {
					return nil
				}
				vec.F[i] = v.Float()
			case KindString:
				if v.Kind() != KindString {
					return nil
				}
				vec.S[i] = v.Str()
			default:
				// All-NULL column with no declared kind: any value
				// reaching here is non-NULL and contradicts inference.
				return nil
			}
		}
		cols[c] = vec
	}
	return &Batch{Schema: schema, Cols: cols, Rows: n}
}

// maxPooledSel caps the capacity of selection vectors kept in the pool
// so one huge scan cannot pin memory forever (wire.PutBuf discipline).
const maxPooledSel = 1 << 20

var selPool = sync.Pool{
	New: func() any {
		s := make([]int32, 0, 1024)
		return &s
	},
}

// GetSel returns an empty selection-vector buffer from the pool.
func GetSel() []int32 { return (*selPool.Get().(*[]int32))[:0] }

// PutSel returns a selection-vector buffer to the pool. Oversized
// buffers are dropped to bound pooled memory.
func PutSel(s []int32) {
	if cap(s) == 0 || cap(s) > maxPooledSel {
		return
	}
	selPool.Put(&s)
}
