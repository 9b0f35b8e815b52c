package algebra

import (
	"fmt"
	"math"
	"math/bits"

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
	dst, err := f.Filter(b, b.Sel, value.GetSelLen(b.Len())[:0])
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

// ProjectExprsBatch computes a projection's expressions over the selected
// rows of b into new dense vectors of the projection's schema. b is
// consumed.
func ProjectExprsBatch(b *value.Batch, proj *expr.Projection) (*value.Batch, Stats, error) {
	n := b.Len()
	out, err := proj.Apply(b)
	value.PutSel(b.Sel)
	b.Sel = nil
	if err != nil {
		return nil, Stats{}, fmt.Errorf("algebra: project: %w", err)
	}
	return out, Stats{TuplesRead: n, TuplesEmitted: n}, nil
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
	return directRuns(keys, &rowRuns{sel: sel})
}

// directRuns is directSpan over the rows runs walks. The bounds are the
// column's range when it has one (value.Vec.Range), which holds every
// cell, so no row is read; a range too wide for the rows (a selective
// filter, keys that drifted) gives way to the rows' own bounds.
func directRuns(keys []*value.Vec, runs *rowRuns) (lo int64, span int, ok bool) {
	v := keys[0]
	if len(keys) != 1 || v.Kind != value.KindInt && v.Kind != value.KindBool || v.KindOnly() || v.Null != nil {
		return 0, 0, false
	}
	n := runs.count()
	if n == 0 {
		return 0, 0, true
	}
	if lo, hi, ok := v.Range(); ok {
		if span, ok := spanOf(lo, hi, n); ok {
			return lo, span, true
		}
	}
	lo, hi := bounds(v, runs)
	span, ok = spanOf(lo, hi, n)
	return lo, span, ok
}

// spanOf is the number of slots cells from lo to hi index, when the direct
// tier admits that many for n rows.
func spanOf(lo, hi int64, n int) (int, bool) {
	// Any two int64s are less than 2^64 apart, so the difference cannot wrap.
	if d := uint64(hi) - uint64(lo); d < uint64(2*n+1024) {
		return int(d) + 1, true
	}
	return 0, false
}

// bounds are the least and greatest cells of an integer vector at the rows
// runs walks, found by a pass over them.
func bounds(v *value.Vec, runs *rowRuns) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for rn, ok := runs.next(true); ok; rn, ok = runs.next(true) {
		col := from(v.I, rn)
		for _, r := range rn.rows {
			lo, hi = min(lo, col[r]), max(hi, col[r])
		}
	}
	runs.rewind()
	return lo, hi
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
	sel   []int32      // the selected physical rows
	ids   []int32      // ids[i] is the group of row sel[i]
	first []int32      // first[g] is the physical row that opened group g
	n     int          // number of groups
	table rowTable     // the groups' table, released by result; none when direct
	arena *value.Arena // lends result's key columns
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
		out.Cols = append(out.Cols, g.b.Cols[c].Gather(g.first, g.arena))
	}
	out.Cols = append(out.Cols, aggs...)
	st := Stats{TuplesRead: len(g.sel), TuplesEmitted: g.n}
	for _, s := range [][]int32{g.sel, g.ids, g.first} {
		value.PutSel(s)
	}
	value.PutHashes(g.table.slots)
	return out, st
}
