package value

import (
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Vec is a typed column vector: one column of a Batch, stored as a flat
// slice of the column's native representation so kernels can loop over
// machine words instead of tagged unions. Exactly one of I/F/S is
// populated, chosen by Kind (booleans ride in I as 0/1). Null is a NULL
// bitmap in the executor's mask layout — bit r&63 of word r>>6 is set when
// row r is NULL, the bits past the last row are clear — so a kernel drops
// the NULLs from a mask word with one &^; it is nil when the column has no
// NULLs, and kernels skip the test. An INT vector may carry a range,
// [Lo, Hi], that bounds every cell a reader can select: the column cache
// records it when it transposes a fragment and widens it as writes land,
// Gather and Scatter keep it, and a kernel that would index a table by the
// cells reads it instead of finding the least and greatest cell itself.
//
// One shared vector per fixed-width kind, with no payload at all, is that
// kind's kind-only vector: the column that no operator above will read
// (Batch.Keep). It stands for its rows without holding them — every
// copy, gather and scatter passes it along untouched, it counts in
// Batch.Size() like any fixed-width column, and a row forced out of it
// materializes as NULL, which weighs what an int does. A string column is
// never kind-only: its lengths are part of the batch's size.
type Vec struct {
	Kind   Kind
	Ranged bool      // Lo and Hi bound the selectable cells of an INT vector
	Null   []uint64  // a bit per row, 64 rows a word; nil = no NULLs anywhere
	I      []int64   // KindInt and KindBool payloads
	F      []float64 // KindFloat payloads
	S      []string  // KindString payloads
	Lo, Hi int64
}

// Range returns bounds on the cells of a fixed-width integer vector, when
// it has them: its recorded range, and [0, 1] for a BOOLEAN.
func (v *Vec) Range() (lo, hi int64, ok bool) {
	switch {
	case v.KindOnly():
		return 0, 0, false
	case v.Kind == KindBool:
		return 0, 1, true
	}
	return v.Lo, v.Hi, v.Ranged && v.Kind == KindInt
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

// kindOnly are the kind-only vectors, by kind; strings have none.
var kindOnly = [KindString + 1]*Vec{KindNull: {Kind: KindNull}, KindBool: {Kind: KindBool}, KindInt: {Kind: KindInt}, KindFloat: {Kind: KindFloat}}

// KindOnly reports whether v is a kind-only vector.
func (v *Vec) KindOnly() bool { return v == kindOnly[v.Kind] }

// Drop returns the kind-only vector that stands for v when nothing will
// read it; a string vector, whose lengths Size() reads, is v itself.
func (v *Vec) Drop() *Vec {
	if k := kindOnly[v.Kind]; k != nil {
		return k
	}
	return v
}

// Value materializes row i of the vector as a tagged scalar.
func (v *Vec) Value(i int) Value {
	if v.IsNull(i) || v.KindOnly() {
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
func (v *Vec) IsNull(i int) bool { return v.Null != nil && v.Null[i>>6]>>(i&63)&1 != 0 }

// NullWord is word w of the NULL bitmap, 0 when the column has none.
func (v *Vec) NullWord(w int) uint64 {
	if v.Null == nil {
		return 0
	}
	return v.Null[w]
}

// Gather builds a dense vector holding the given physical rows of v, in
// order — the column-wise copy a batch join uses to assemble its output.
func (v *Vec) Gather(idxs []int32, a *Arena) *Vec {
	return v.Scatter(idxs, nil, len(idxs), a)
}

// Scatter builds a vector of n rows holding row idxs[k] of v at row at[k]
// (at row k when at is nil) — a join's build side laid out along the rows
// of its probe side. Its numeric payload is lent by a, unzeroed: rows
// Scatter does not list hold arbitrary values and must stay out of every
// selection. A kind-only vector is its own scatter; the copy keeps v's range.
func (v *Vec) Scatter(idxs, at []int32, n int, a *Arena) *Vec {
	if v.KindOnly() {
		return v
	}
	out := &Vec{Kind: v.Kind, Lo: v.Lo, Hi: v.Hi, Ranged: v.Ranged}
	if v.Null != nil {
		out.Null = make([]uint64, (n+63)>>6)
		for k, r := range idxs {
			if row := k; v.IsNull(int(r)) {
				if at != nil {
					row = int(at[k])
				}
				out.Null[row>>6] |= 1 << (row & 63)
			}
		}
	}
	switch v.Kind {
	case KindFloat:
		out.F = a.Floats(n)
		scatterInto(out.F, v.F, idxs, at)
	case KindString:
		out.S = make([]string, n)
		scatterInto(out.S, v.S, idxs, at)
	default:
		out.I = a.Ints(n)
		scatterInto(out.I, v.I, idxs, at)
	}
	return out
}

func scatterInto[T any](dst, src []T, idxs, at []int32) {
	if at == nil {
		gatherInto(dst, src, idxs)
		return
	}
	for k, r := range idxs {
		dst[at[k]] = src[r]
	}
}

// Batch is a columnar slice of a relation: per-column vectors plus a
// selection vector of the physical row indices that are logically
// present. Sel == nil means every physical row is selected (the dense
// case). Operators narrow Sel instead of copying tuples; materialization
// back to row form is deferred to the plan root. A sort orders its rows by
// permuting Sel, so only there is it not ascending.
type Batch struct {
	Schema *Schema
	Cols   []*Vec
	Sel    []int32 // selected physical rows, in order; nil = all
	Rows   int     // physical row count of every column
	// Slices, per column, are bit-sliced copies of INT columns that the
	// filter kernels compare over instead of the values (nil: none). Only
	// the column cache sets them, for the one filter call it makes under
	// its lock; a batch handed on never carries them.
	Slices []*BitSlices
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

// ColSet is a set of column positions of one schema, a bit per column:
// what an operator's consumers will read of its output. AllCols is every
// column, and the only set a schema wider than 64 columns is given.
type ColSet uint64

const AllCols = ^ColSet(0)

// Has reports whether column c is in the set.
func (s ColSet) Has(c int) bool { return s == AllCols || c < 64 && s>>c&1 != 0 }

// With returns the set with column c added.
func (s ColSet) With(c int) ColSet {
	if c >= 64 {
		return AllCols
	}
	return s | 1<<c
}

// Keep replaces every fixed-width column that need does not list with a
// kind-only vector, so no operator above copies it. The column list is
// replaced, not written: a scan's is the column cache's own.
func (b *Batch) Keep(need ColSet) {
	shared := true
	for c, v := range b.Cols {
		if need.Has(c) || v == v.Drop() {
			continue
		}
		if shared {
			b.Cols, shared = slices.Clone(b.Cols), false
		}
		b.Cols[c] = v.Drop()
	}
}

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

// HashCols hashes the given columns of the rows sel lists, a column at a
// time over the typed vectors: dst[i] is what HashTuple gives for the
// materialized row sel[i] — the invariant that keeps a columnar hash
// exchange bucket-aligned with the row one, and the hash the join and
// grouping kernels probe their tables with when the key is not a word of
// its own (KeyWords). The vector comes from the pool; the caller hands it
// back with PutHashes.
func (b *Batch) HashCols(sel []int32, idxs []int) []uint64 {
	dst := GetHashes(len(sel))
	for i := range dst {
		dst[i] = fnvOffset
	}
	for _, ix := range idxs {
		v := b.Cols[ix]
		switch v.Kind {
		case KindNull:
			for i := range dst {
				dst[i] = (dst[i] ^ hashNull) * fnvPrime
			}
		case KindFloat:
			for i, r := range sel {
				h := hashNull
				if !v.IsNull(int(r)) {
					h = hashFloat(v.F[r])
				}
				dst[i] = (dst[i] ^ h) * fnvPrime
			}
		case KindString:
			for i, r := range sel {
				h := hashNull
				if !v.IsNull(int(r)) {
					h = hashString(v.S[r])
				}
				dst[i] = (dst[i] ^ h) * fnvPrime
			}
		default:
			seed := hashKind(v.Kind)
			for i, r := range sel {
				h := hashNull
				if !v.IsNull(int(r)) {
					h = hashBytes(seed, uint64(v.I[r]))
				}
				dst[i] = (dst[i] ^ h) * fnvPrime
			}
		}
	}
	return dst
}

// KeyWords gives every row sel lists one word that stands for its key on
// the given columns, for the join and grouping tables to probe with. When
// the key is one fixed-width column with a payload and no NULL bitmap the
// word is the cell itself — its 64 payload bits — and exact is set: equal
// words are then equal keys of that column's kind, so a table confirms a
// candidate by comparing words and no hash is taken. Any other key gets
// HashCols' hashes. The vector is pooled like HashCols'.
func (b *Batch) KeyWords(sel []int32, idxs []int) (words []uint64, exact bool) {
	if len(idxs) == 1 {
		if v := b.Cols[idxs[0]]; v.Fixed() && v.Null == nil {
			return v.Words(sel), true
		}
	}
	return b.HashCols(sel, idxs), false
}

// Fixed reports whether v holds a fixed-width payload: an INT, BOOLEAN or
// FLOAT vector that is not kind-only.
func (v *Vec) Fixed() bool {
	return (v.Kind == KindInt || v.Kind == KindBool || v.Kind == KindFloat) && !v.KindOnly()
}

// Words gives the 64 payload bits of every row sel lists of a fixed-width
// vector — a NULL row's are arbitrary — in a vector pooled like HashCols'.
func (v *Vec) Words(sel []int32) []uint64 {
	words := GetHashes(len(sel))
	if v.Kind == KindFloat {
		for i, r := range sel {
			words[i] = math.Float64bits(v.F[r])
		}
	} else {
		for i, r := range sel {
			words[i] = uint64(v.I[r])
		}
	}
	return words
}

// TakeSel detaches and returns the batch's selection vector — for a dense
// batch the identity selection, from the pool — so a kernel has one loop
// shape for both. The caller owns it and hands it back with PutSel; the
// batch is left dense.
func (b *Batch) TakeSel() []int32 {
	sel := b.Sel
	b.Sel = nil
	if sel == nil {
		sel = GetSelLen(b.Rows)
		for i := range sel {
			sel[i] = int32(i)
		}
	}
	return sel
}

// ConcatBatches concatenates the selected rows of the given batches (in
// order) into one dense batch. Inputs are consumed: their selection
// vectors return to the pool.
func ConcatBatches(schema *Schema, batches []*Batch, a *Arena) *Batch {
	out := newConcat(schema, batches, a)
	at := 0
	for _, b := range batches {
		dst, off, piece := []*Batch{out}, []int{at}, []*Batch{b}
		at += b.Len()
		copyRows(dst, off, piece)
		copyNulls(dst, off, piece)
	}
	return out
}

// newConcat allocates the dense batch a concatenation of the given batches
// fills, copying nothing yet: a column has a null bitmap only if a source's
// has one, and is kind-only where any source's is — a column nobody reads,
// which a source that decodes every column (an index probe) still carries
// whole.
// Numeric payloads are lent by a, unzeroed — copyRows writes every row.
func newConcat(schema *Schema, batches []*Batch, a *Arena) *Batch {
	n := 0
	for _, b := range batches {
		n += b.Len()
	}
	out := &Batch{Schema: schema, Cols: make([]*Vec, schema.Len()), Rows: n}
	for c := range out.Cols {
		// The column kind comes from the first batch contributing rows;
		// sibling batches of one schema always agree (same cache layout).
		vec, dropped, first := &Vec{Kind: schema.Column(c).Kind}, false, true
		for _, b := range batches {
			if b.Len() > 0 {
				if first {
					vec.Kind, first = b.Cols[c].Kind, false
				}
				dropped = dropped || b.Cols[c].KindOnly()
			}
		}
		if dropped {
			out.Cols[c] = vec.Drop()
			continue
		}
		out.Cols[c] = vec
		for _, b := range batches {
			if b.Cols[c].Null != nil && vec.Null == nil {
				vec.Null = make([]uint64, (n+63)>>6)
			}
		}
		switch vec.Kind {
		case KindFloat:
			vec.F = a.Floats(n)
		case KindString:
			vec.S = make([]string, n)
		default:
			vec.I = a.Ints(n)
		}
	}
	return out
}

// copyRows copies the payloads of the selected rows of each piece into
// dsts[k] from row ats[k] on, a source block at a time: a dense piece is
// copied, a selected one gathered. It goes column by column across the
// pieces — the pieces of one hash split share their columns, which so stay
// in cache for all of them. A nil piece is skipped, as is a kind-only
// column. The NULL bits are copyNulls' to copy.
func copyRows(dsts []*Batch, ats []int, pieces []*Batch) {
	for c := range dsts[0].Cols {
		for k, b := range pieces {
			if b == nil || dsts[k].Cols[c].KindOnly() {
				continue
			}
			src, vec := b.Cols[c], dsts[k].Cols[c]
			lo, hi := ats[k], ats[k]+b.Len()
			switch {
			case src.Kind != vec.Kind: // an all-NULL source of undeclared kind: no payload
			case vec.Kind == KindFloat:
				gatherInto(vec.F[lo:hi], src.F, b.Sel)
			case vec.Kind == KindString:
				gatherInto(vec.S[lo:hi], src.S, b.Sel)
			default:
				gatherInto(vec.I[lo:hi], src.I, b.Sel)
			}
		}
	}
}

// copyNulls sets the NULL bits copyRows leaves, and consumes the pieces.
// Rows of neighbouring pieces may share a bitmap word, so a destination's
// pieces must not run it at once.
func copyNulls(dsts []*Batch, ats []int, pieces []*Batch) {
	for k, b := range pieces {
		if b == nil {
			continue
		}
		for c, src := range b.Cols {
			dst := dsts[k].Cols[c].Null // nil for a kind-only column
			for i := 0; src.Null != nil && dst != nil && i < b.Len(); i++ {
				if r := ats[k] + i; src.IsNull(b.Row(i)) {
					dst[r>>6] |= 1 << (r & 63)
				}
			}
		}
		PutSel(b.Sel)
		b.Sel = nil
	}
}

// SplitByHash hash-partitions the selected rows of b into n batches over
// its columns: out[k] selects the rows whose key hash is k modulo n (nil
// when there are none). The hash is HashTuple's, taken a column at a time,
// not fragment placement's (Hash64 of one column mod the fragment count);
// the selections are sized from the bucket counts. b is consumed.
func (b *Batch) SplitByHash(keys []int, n int) []*Batch {
	sel := b.TakeSel()
	bkts := b.HashCols(sel, keys)
	counts := make([]int, n)
	pow2 := n&(n-1) == 0 // h % n without the division
	for i, h := range bkts {
		if pow2 {
			bkts[i] = h & uint64(n-1)
		} else {
			bkts[i] = h % uint64(n)
		}
		counts[bkts[i]]++
	}
	sels := make([][]int32, n)
	for k, c := range counts {
		if c > 0 {
			sels[k] = GetSelLen(c)[:0]
		}
	}
	for i, k := range bkts {
		sels[k] = append(sels[k], sel[i])
	}
	out := make([]*Batch, n)
	for k, ksel := range sels {
		if ksel != nil {
			out[k] = &Batch{Schema: b.Schema, Cols: b.Cols, Sel: ksel, Rows: b.Rows}
		}
	}
	PutHashes(bkts)
	PutSel(sel)
	return out
}

// ConcatSplits is the receiving side of a hash exchange: out[k] is the
// concatenation of splits[i][k] over the sources i, in order. The copy
// runs a source at a time (through each, which may run sources in
// parallel — they fill disjoint rows): the buckets of one split are
// selections over the same columns, read while those are in cache. The
// NULL bits follow, a source at a time, as rows of two sources may share a
// bitmap word. A nil split or piece contributes nothing; the splits are
// consumed.
func ConcatSplits(schema *Schema, splits [][]*Batch, n int, each func(n int, fn func(i int) error) error, a *Arena) ([]*Batch, error) {
	out := make([]*Batch, n)
	ats := make([][]int, len(splits)) // ats[i][k]: where source i's rows start in out[k]
	for k := range out {
		var pieces []*Batch
		at := 0
		for i, split := range splits {
			if split == nil || split[k] == nil {
				continue
			}
			if ats[i] == nil {
				ats[i] = make([]int, n)
			}
			ats[i][k] = at
			at += split[k].Len()
			pieces = append(pieces, split[k])
		}
		out[k] = newConcat(schema, pieces, a)
	}
	err := each(len(splits), func(i int) error {
		if ats[i] != nil {
			copyRows(out, ats[i], splits[i])
		}
		return nil
	})
	for i, split := range splits {
		if ats[i] != nil {
			copyNulls(out, ats[i], split)
		}
	}
	return out, err
}

// gatherInto fills dst with the rows of src that sel lists; nil selects
// the first len(dst) rows.
func gatherInto[T any](dst, src []T, sel []int32) {
	if sel == nil {
		copy(dst, src)
		return
	}
	for i, r := range sel {
		dst[i] = src[r]
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
		// A NULL may sit over a stale payload (a cache row patched to NULL,
		// a gathered copy): it ships as a bare NULL, like the row form.
		for i := 0; i < n; i++ {
			if r := b.Row(i); !vec.IsNull(r) {
				total += len(vec.S[r])
			}
		}
	}
	return total
}

// NewBatchFrom builds a columnar batch from row-oriented tuples. Every
// column must be uniform: each value NULL or of one consistent kind
// (the storage layer's Conform guarantees this for stored relations).
// A nil tuple is a hole: its row keeps zero payloads, and the caller
// must keep it out of every selection (the OFM column cache maps free
// store slots this way). An INT column is ranged over its non-NULL
// values (an empty one over [0, 0]). Returns nil when a column is
// heterogeneous or a tuple is short.
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
		vec := newVec(kind, n)
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
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
					vec.Null = make([]uint64, (n+63)>>6)
				}
				vec.Null[i>>6] |= 1 << (i & 63)
				continue
			}
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
				x := v.Int()
				vec.I[i], lo, hi = x, min(lo, x), max(hi, x)
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
		if vec.Ranged && lo <= hi {
			vec.Lo, vec.Hi = lo, hi
		}
		cols[c] = vec
	}
	return &Batch{Schema: schema, Cols: cols, Rows: n}
}

// newVec returns a vector of n zero rows of kind k, ranged if INT.
func newVec(k Kind, n int) *Vec {
	vec := &Vec{Kind: k, Ranged: k == KindInt}
	switch k {
	case KindFloat:
		vec.F = make([]float64, n)
	case KindString:
		vec.S = make([]string, n)
	default:
		vec.I = make([]int64, n)
	}
	return vec
}

// maxPooledSel caps the capacity of selection vectors kept in the pool
// so one huge scan cannot pin memory forever (wire.PutBuf discipline).
const maxPooledSel = 1 << 20

// The selection and hash vectors are pooled by size class, powers of two
// from 1<<minArenaBits up to maxPooledSel elements, as the arena's payloads
// are: a request takes a buffer of the least class that holds it, and a
// buffer goes back to the greatest class it can stand in for. The pools
// hold *[]T boxes, and an emptied box waits in boxes for the next put, so
// neither a get nor a put allocates once the pools are warm.
var (
	selPools, hashPools [arenaClasses]sync.Pool
	selBoxes, hashBoxes sync.Pool
)

func getPooled[T int32 | uint64](pools *[arenaClasses]sync.Pool, boxes *sync.Pool, n int) []T {
	if n > maxPooledSel {
		return make([]T, n)
	}
	class := max(bits.Len(uint(max(n, 1)-1)), minArenaBits) - minArenaBits
	box, _ := pools[class].Get().(*[]T)
	if box == nil {
		return make([]T, n, 1<<(class+minArenaBits))
	}
	s := (*box)[:n]
	*box = nil
	boxes.Put(box)
	return s
}

func putPooled[T int32 | uint64](pools *[arenaClasses]sync.Pool, boxes *sync.Pool, s []T) {
	if cap(s) < 1<<minArenaBits || cap(s) > maxPooledSel {
		return
	}
	box, _ := boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s
	pools[bits.Len(uint(cap(s)))-1-minArenaBits].Put(box)
}

// GetSel returns an empty selection-vector buffer from the pool.
func GetSel() []int32 { return getPooled[int32](&selPools, &selBoxes, 0) }

// GetSelLen returns a pooled buffer of length n with arbitrary contents —
// the kernels' int32 scratch (hash-table slots, group ids, chain links).
func GetSelLen(n int) []int32 { return getPooled[int32](&selPools, &selBoxes, n) }

// PutSel returns a selection-vector buffer to the pool. Oversized
// buffers are dropped to bound pooled memory.
func PutSel(s []int32) { putPooled(&selPools, &selBoxes, s) }

// GetHashes returns a pooled hash vector of length n, under the same cap
// discipline as the selection vectors.
func GetHashes(n int) []uint64 { return getPooled[uint64](&hashPools, &hashBoxes, n) }

// PutHashes returns a hash vector to the pool.
func PutHashes(s []uint64) { putPooled(&hashPools, &hashBoxes, s) }
