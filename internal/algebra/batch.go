package algebra

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/expr"
	"repro/internal/value"
)

// This file and join.go and sort.go hold the operators the executor runs,
// all over batches. Select narrows a selection vector and Project remaps
// column pointers. The hash join, the grouped aggregate (DISTINCT is one
// with every column as key) and the merge of partial aggregates share one
// typed table design in three tiers. A dense integer key (directSpan) is
// direct-mapped: a pooled array indexed by cell minus the least cell holds
// each key's row or group, read straight off the key column. Every other
// key gets one word a vector at a time (value.Batch.KeyWords), one
// open-addressing table of row ids is probed with those words, and a
// candidate is confirmed as the same key — same kind and same bits, what
// the tuples' byte keys decide. A key of one fixed-width column without
// NULLs (a FLOAT, or integers too sparse for the array) is its own word:
// the cell's 64 bits are mixed for the slot and compared for the
// confirmation, so no hash is taken and no key column read again. Every
// other key — strings, composites, NULLs — is hashed (HashCols) and
// confirmed column-wise on the typed vectors. No cell is boxed, and every
// tier charges the Stats one hash per row. The join copies its matches
// column-wise;
// aggregation assigns first-seen group ids and folds each spec into a typed
// accumulator column in one loop, so it is batch in, batch out. Tuple-at-a-
// time operators in the package's tests are the differential oracle for
// all of it, order and Stats included.
// Every operator CONSUMES its input batches: their selection vectors go
// back to the pool, like the kernels' scratch, so a batch passed in may be
// passed again only if it was dense.

// SelectBatch filters b with a vectorized predicate, producing a batch
// that shares b's column vectors under a narrowed selection vector — no
// tuple is materialized. b is consumed.
func SelectBatch(b *value.Batch, f *expr.VecFilter) (*value.Batch, Stats, error) {
	dst := value.GetSel()
	dst, err := f.Filter(b, b.Sel, dst)
	if err != nil {
		value.PutSel(dst)
		return nil, Stats{}, fmt.Errorf("algebra: select: %w", err)
	}
	read := b.Len()
	if b.Sel != nil {
		value.PutSel(b.Sel)
		b.Sel = nil
	}
	out := &value.Batch{Schema: b.Schema, Cols: b.Cols, Sel: dst, Rows: b.Rows}
	return out, Stats{TuplesRead: read, TuplesEmitted: len(dst)}, nil
}

// ProjectBatch restricts b to the given column positions — a pure column
// remap sharing vectors and selection with b.
func ProjectBatch(b *value.Batch, cols []int, schema *value.Schema) (*value.Batch, Stats, error) {
	for _, c := range cols {
		if c < 0 || c >= len(b.Cols) {
			return nil, Stats{}, fmt.Errorf("algebra: project column %d out of range for %s", c, b.Schema)
		}
	}
	n := b.Len()
	return b.Project(cols, schema), Stats{TuplesRead: n, TuplesEmitted: n}, nil
}

// ProjectExprsBatch computes a compiled projector's expressions over the
// selected rows of b, a row at a time, into new dense vectors of the
// projector's schema. b is consumed.
func ProjectExprsBatch(b *value.Batch, proj *expr.Projector) (*value.Batch, Stats, error) {
	rows := b.Materialize()
	if b.Sel != nil {
		value.PutSel(b.Sel)
		b.Sel = nil
	}
	tuples, err := proj.ApplyBatch(rows.Tuples)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("algebra: project: %w", err)
	}
	out := value.NewBatchFrom(proj.Schema(), tuples)
	if out == nil {
		return nil, Stats{}, fmt.Errorf("algebra: project: a computed column of %s holds values of several kinds", proj.Schema())
	}
	return out, Stats{TuplesRead: len(rows.Tuples), TuplesEmitted: len(tuples)}, nil
}

// rowTable is the hash table of the join and grouping kernels: open
// addressing with linear probing. A slot packs the high half of its key's
// hash over a 32-bit id plus one (a build row for the join, a group for
// the aggregate); zero is empty. One load so finds a candidate and rules
// out nearly every other key before anything is compared. It holds at
// most half as many keys as slots and is pooled.
type rowTable struct {
	slots []uint64
	shift uint
}

func newRowTable(keys int) rowTable {
	size := 1 << bits.Len(uint(2*keys+15))
	t := rowTable{slots: value.GetHashes(size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
	clear(t.slots)
	return t
}

// tableHash is the hash a key word enters the table under. A hashed key's
// word is that hash already. An exact one is a raw column cell — usually a
// small integer, all zeros where a slot takes its tag — and is multiplied
// out first; keys that count upwards then spread over the slots evenly,
// not merely at random, as under any multiplicative hash.
func tableHash(w uint64, exact bool) uint64 {
	if exact {
		w *= 0xD6E8FEB86659FD93
	}
	return w
}

// home is the slot a hash starts probing at. FNV-1a mixes upward only, so
// the table takes its index from the high bits of a Fibonacci multiply. A
// raw cell must meet another multiply first (tableHash): this one alone is
// linear in the key, so cells in arithmetic progression start a fixed
// distance apart — a fraction of a slot when stride times constant is
// nearly a multiple of 2^64, as it is for a Fibonacci number (their ratios
// are the golden ratio's convergents), and every key then probes past all
// those before it. The two constants' product has no such stride anyone
// counts in (TestKeyWordStridesStayLinear).
func (t rowTable) home(h uint64) int { return int((h * 0x9E3779B97F4A7C15) >> t.shift) }

// step is the slot probed after p.
func (t rowTable) step(p int) int { return (p + 1) & (len(t.slots) - 1) }

// slotFor is the slot content for id under hash h.
func slotFor(h uint64, id int32) uint64 { return h&^math.MaxUint32 | uint64(id+1) }

// slotID is the id in the occupied slot s if its key can hash to h, else -1.
func slotID(s, h uint64) int32 {
	if (s^h)>>32 != 0 {
		return -1
	}
	return int32(uint32(s)) - 1
}

// keyVecs are the key columns of a batch, and whether any holds a NULL.
func keyVecs(b *value.Batch, cols []int) (vecs []*value.Vec, nullable bool) {
	vecs = make([]*value.Vec, len(cols))
	for i, c := range cols {
		vecs[i] = b.Cols[c]
		nullable = nullable || vecs[i].Null != nil
	}
	return vecs, nullable
}

// directSpan decides the direct-mapped tier: a key that is one INT or BOOL
// column with a payload and no NULL bitmap, whose cells at the rows sel
// lists lie in [lo, lo+span) with span ≤ 2·len(sel)+1024, indexes a table
// of span slots by cell − lo — no larger than the open-addressing table it
// stands in for. ok reports the tier; over no rows the span is zero.
func directSpan(keys []*value.Vec, sel []int32) (lo int64, span int, ok bool) {
	v := keys[0]
	if len(keys) != 1 || v.Kind != value.KindInt && v.Kind != value.KindBool || v.KindOnly() || v.Null != nil {
		return 0, 0, false
	}
	if len(sel) == 0 {
		return 0, 0, true
	}
	lo, hi := v.I[sel[0]], v.I[sel[0]]
	for _, r := range sel {
		lo, hi = min(lo, v.I[r]), max(hi, v.I[r])
	}
	// Any two int64s are less than 2^64 apart, so the difference cannot wrap.
	if d := uint64(hi) - uint64(lo); d < uint64(2*len(sel)+1024) {
		return lo, int(d) + 1, true
	}
	return 0, 0, false
}

// sameKey reports whether physical row i of a and row j of b hold the same
// key: column by column the same kind and the same bits, NULL equal to
// NULL — what the row operators' byte keys decide.
func sameKey(a []*value.Vec, i int32, b []*value.Vec, j int32) bool {
	for k, av := range a {
		bv := b[k]
		an, bn := av.IsNull(int(i)), bv.IsNull(int(j))
		switch {
		case an || bn:
			if an != bn {
				return false
			}
		case av.Kind != bv.Kind:
			return false
		case av.Kind == value.KindFloat:
			if math.Float64bits(av.F[i]) != math.Float64bits(bv.F[j]) {
				return false
			}
		case av.Kind == value.KindString:
			if av.S[i] != bv.S[j] {
				return false
			}
		default:
			if av.I[i] != bv.I[j] {
				return false
			}
		}
	}
	return true
}

func nullKey(vecs []*value.Vec, row int32) bool {
	for _, v := range vecs {
		if v.IsNull(int(row)) {
			return true
		}
	}
	return false
}

// groups is a batch's selected rows resolved to group ids on some key
// columns, assigned in first-seen order.
type groups struct {
	b     *value.Batch
	keys  []int
	sel   []int32  // the selected physical rows
	ids   []int32  // ids[i] is the group of row sel[i]
	first []int32  // first[g] is the physical row that opened group g
	n     int      // number of groups
	rows  []int64  // rows[g] is the number of rows in group g, once counted
	table rowTable // the groups' table, released by result; none when direct
}

// groupRows resolves the selected rows of b to groups. No key columns is
// the one global group, which exists even over no rows and needs no table;
// a key directSpan admits indexes a table of group ids by its cells.
func groupRows(b *value.Batch, keys []int) *groups {
	g := &groups{b: b, keys: keys, sel: b.TakeSel(), first: value.GetSel(), n: 1}
	g.ids = value.GetSelLen(len(g.sel))
	if len(keys) == 0 {
		clear(g.ids)
		return g
	}
	vecs, _ := keyVecs(b, keys)
	if lo, span, ok := directSpan(vecs, g.sel); ok {
		// gid[x-lo] is one plus the group of key x, zero until x is seen.
		gid, col := value.GetSelLen(span), vecs[0].I
		clear(gid)
		for i, r := range g.sel {
			id := &gid[col[r]-lo]
			if *id == 0 {
				g.first = append(g.first, r)
				*id = int32(len(g.first))
			}
			g.ids[i] = *id - 1
		}
		g.n = len(g.first)
		value.PutSel(gid)
		return g
	}
	ws, exact := b.KeyWords(g.sel, keys)
	// The table starts small and doubles as groups appear, refilled from
	// their words: it stays in cache when rows are many and groups few.
	table, gws := newRowTable(min(len(g.sel), 512)), value.GetHashes(0)
	for i, w := range ws {
		row, h := g.sel[i], tableHash(w, exact)
		for p := table.home(h); ; p = table.step(p) {
			if s := table.slots[p]; s != 0 {
				if id := slotID(s, h); id >= 0 && (exact && gws[id] == w || !exact && sameKey(vecs, g.first[id], vecs, row)) {
					g.ids[i] = id
					break
				}
				continue
			}
			table.slots[p], g.ids[i] = slotFor(h, int32(len(gws))), int32(len(gws))
			g.first, gws = append(g.first, row), append(gws, w)
			if 2*len(gws) > len(table.slots) {
				value.PutHashes(table.slots)
				table = newRowTable(2 * len(gws))
				for id, gw := range gws {
					gh := tableHash(gw, exact)
					p := table.home(gh)
					for table.slots[p] != 0 {
						p = table.step(p)
					}
					table.slots[p] = slotFor(gh, int32(id))
				}
			}
			break
		}
	}
	g.n, g.table = len(gws), table
	value.PutHashes(ws)
	value.PutHashes(gws)
	return g
}

// result assembles the output batch — the group keys (each group's first
// row), then the given aggregate columns — and releases the scratch.
func (g *groups) result(schema *value.Schema, aggs []*value.Vec) (*value.Batch, Stats) {
	out := &value.Batch{Schema: schema, Rows: g.n, Cols: make([]*value.Vec, 0, len(g.keys)+len(aggs))}
	for _, c := range g.keys {
		out.Cols = append(out.Cols, g.b.Cols[c].Gather(g.first, nil))
	}
	out.Cols = append(out.Cols, aggs...)
	st := Stats{TuplesRead: len(g.sel), TuplesEmitted: g.n}
	for _, s := range [][]int32{g.sel, g.ids, g.first} {
		value.PutSel(s)
	}
	value.PutHashes(g.table.slots)
	return out, st
}

// tally counts each group's rows that are not NULL under null. With no
// bitmap that is the group's rows, counted once however many aggregates
// ask: the slice is then shared, and an output column takes a copy of it.
func (g *groups) tally(null []bool) []int64 {
	if null != nil {
		cnt := make([]int64, g.n)
		for i, r := range g.sel {
			if !null[r] {
				cnt[g.ids[i]]++
			}
		}
		return cnt
	}
	if g.rows == nil {
		g.rows = make([]int64, g.n)
		if len(g.keys) == 0 {
			g.rows[0] = int64(len(g.sel))
		} else {
			for _, id := range g.ids {
				g.rows[id]++
			}
		}
	}
	return g.rows
}

// sums adds up each group's non-NULL values of a numeric column, as A and
// in row order (the order the row operator adds in, which a float sum
// shows); a column of another kind adds up to zeros.
func sums[A int64 | float64](g *groups, v *value.Vec) []A {
	switch v.Kind {
	case value.KindFloat:
		return sumsOf[A](g, v.F, v.Null)
	case value.KindInt:
		return sumsOf[A](g, v.I, v.Null)
	}
	return make([]A, g.n)
}

func sumsOf[A, T int64 | float64](g *groups, col []T, null []bool) []A {
	acc := make([]A, g.n)
	for i, r := range g.sel {
		if null == nil || !null[r] {
			acc[g.ids[i]] += A(col[r])
		}
	}
	return acc
}

// extremes keeps each group's least (or, with max set, greatest) non-NULL
// value of col under value.Compare's order — NaN before every number, and
// of values that compare equal the first seen — and counts the non-NULL
// rows.
func extremes[T int64 | float64 | string](g *groups, col []T, null []bool, max bool) ([]T, []int64) {
	acc, cnt := make([]T, g.n), make([]int64, g.n)
	for i, r := range g.sel {
		if null != nil && null[r] {
			continue
		}
		id, x := g.ids[i], col[r]
		a := acc[id]
		// x != x holds only for a float NaN.
		if cnt[id] == 0 || (!max && (x < a || (x != x && a == a))) || (max && (x > a || (a != a && x == x))) {
			acc[id] = x
		}
		cnt[id]++
	}
	return acc, cnt
}

// nullWhereZero is the null bitmap of an aggregate column: NULL where the
// group had no non-NULL input, nil when no group is.
func nullWhereZero(cnt []int64) []bool {
	var null []bool
	for i, c := range cnt {
		if c == 0 {
			if null == nil {
				null = make([]bool, len(cnt))
			}
			null[i] = true
		}
	}
	return null
}

// average turns per-group sums into averages over the given counts, NULL
// where the count is zero.
func average(sum []float64, cnt []int64) *value.Vec {
	for i, c := range cnt {
		sum[i] /= float64(c)
	}
	return &value.Vec{Kind: value.KindFloat, F: sum, Null: nullWhereZero(cnt)}
}

// fold computes one aggregate over column v per group as a typed output
// column; a nil v is COUNT(*). NULL handling and result kinds are the row
// aggState's.
func (g *groups) fold(fn AggFunc, v *value.Vec) *value.Vec {
	if v == nil {
		return &value.Vec{Kind: value.KindInt, I: slices.Clone(g.tally(nil))} // COUNT(*) counts rows, NULLs included
	}
	out := &value.Vec{Kind: resultKind(fn, v.Kind)}
	var cnt []int64
	switch extreme := fn == Min || fn == Max; {
	case extreme && v.Kind == value.KindFloat:
		out.F, cnt = extremes(g, v.F, v.Null, fn == Max)
	case extreme && v.Kind == value.KindString:
		out.S, cnt = extremes(g, v.S, v.Null, fn == Max)
	case extreme:
		out.I, cnt = extremes(g, v.I, v.Null, fn == Max)
	case fn == Count:
		out.I = slices.Clone(g.tally(v.Null))
		return out
	case fn == Avg:
		return average(sums[float64](g, v), g.tally(v.Null))
	case out.Kind == value.KindFloat:
		out.F, cnt = sums[float64](g, v), g.tally(v.Null)
	default:
		out.I, cnt = sums[int64](g, v), g.tally(v.Null)
	}
	out.Null = nullWhereZero(cnt)
	return out
}

// AggregateBatch groups b by the groupBy columns (empty = one global
// group) and computes the aggregate specs over the column vectors. Output
// schema, group order (first-seen) and NULL handling match the row
// Aggregate exactly; the result is a dense batch. b is consumed.
func AggregateBatch(b *value.Batch, groupBy []int, specs []AggSpec) (*value.Batch, Stats, error) {
	schema, err := aggSchema(b.Schema, groupBy, specs)
	if err != nil {
		return nil, Stats{}, err
	}
	g := groupRows(b, groupBy)
	aggs := make([]*value.Vec, len(specs))
	for i, sp := range specs {
		var v *value.Vec
		if sp.Col >= 0 {
			v = b.Cols[sp.Col]
		}
		aggs[i] = g.fold(sp.Func, v)
	}
	out, st := g.result(schema, aggs)
	st.Hashes = st.TuplesRead
	return out, st, nil
}

// MergeAggregateBatches combines per-fragment partial aggregates, made with
// PartialSpecs(specs), into the final result — the coordinator's half of
// the two-phase distributed aggregation: the partials are concatenated and
// regrouped on their leading groupByLen columns, and every partial column
// folds into its final one — counts and sums add up, minima and maxima fold
// again, an average is its summed sums over its summed counts. Group order
// is first-seen across the partials, in order. The partials are consumed.
func MergeAggregateBatches(partials []*value.Batch, groupByLen int, specs []AggSpec) (*value.Batch, Stats, error) {
	if len(partials) == 0 {
		return nil, Stats{}, fmt.Errorf("algebra: no partial aggregates to merge")
	}
	schema, err := mergeSchema(partials[0].Schema, groupByLen, specs)
	if err != nil {
		return nil, Stats{}, err
	}
	b := value.ConcatBatches(partials[0].Schema, partials, nil)
	keys := make([]int, groupByLen)
	for i := range keys {
		keys[i] = i
	}
	g := groupRows(b, keys)
	aggs := make([]*value.Vec, len(specs))
	col := groupByLen
	for i, sp := range specs {
		switch sp.Func {
		case Count: // never NULL: over no partial rows it is 0
			aggs[i] = &value.Vec{Kind: value.KindInt, I: sums[int64](g, b.Cols[col])}
		case Avg:
			aggs[i] = average(sums[float64](g, b.Cols[col]), sums[int64](g, b.Cols[col+1]))
			col++
		default:
			aggs[i] = g.fold(sp.Func, b.Cols[col])
		}
		col++
	}
	out, st := g.result(schema, aggs)
	return out, st, nil
}
