package algebra

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/expr"
	"repro/internal/value"
)

// The aggregate kernels fold their rows into accumulators: a column per
// aggregate with a slot per group, filled a run of rows at a time. A key
// directRuns admits (one INT or BOOL column whose cells span no more slots
// than the rows allow) is its own slot, cell − lo: no table and no group
// id, and the bounds are the column's range (value.Vec.Range), so no pass
// looks for them. The global aggregate has the one slot 0. Any other key
// is grouped first (groupRows), and a group's id is its slot. A fragment
// scan hands over its filter's mask, and these tiers and a group-join's
// sink walk its set bits: no selection is made. When the row counts and
// INT sums over cells with no NULL answer every aggregate — the usual
// COUNT(*), SUM(x), and every merge of their partials — no row is listed
// (plain): the global slot counts a walk's rows at once, a popcount over a
// mask; the direct tier counts a dense run's cells or a mask's set bits
// into their slots, adding one sum as it goes, and each other sum adds
// its cells into theirs in a pass of its own. Otherwise the pass writes
// each row's slot down and each aggregate folds the run in a loop of its
// own. Groups come out first-seen, as the row operator emits them: the
// direct tier lists its slots as it opens them.

// runLen bounds a run, so its rows and slots stay in the first-level cache.
const runLen = 256

// run is a run of a walk's rows: row base+rows[j] for each j, listed when
// the walk is a selection's or when its taker asked. A dense run's rows
// are identity's and its cells lie from base on; a mask's run is its
// words, whose first bit is row base.
type run struct {
	rows  []int32
	base  int
	words []uint64
	dense bool
}

// identity lists 0, 1, … runLen-1.
var identity = func() (id [runLen]int32) {
	for i := range id {
		id[i] = int32(i)
	}
	return id
}()

// from is s from the run's base on, which its rows index.
func from[T any](s []T, rn run) []T {
	if s == nil {
		return nil
	}
	return s[rn.base:]
}

// nullsFrom is a NULL bitmap from the run's base on, which its rows index:
// a run starts on a word, as runLen and a mask's words keep it.
func nullsFrom(null []uint64, rn run) []uint64 {
	if rn.base&63 != 0 {
		panic("algebra: a run starts inside a bitmap word")
	}
	return from(null, run{base: rn.base >> 6})
}

// isNull reports whether bit r of the NULL bitmap null (nil: none) is set.
func isNull(null []uint64, r int32) bool { return null != nil && null[r>>6]>>(r&63)&1 != 0 }

// rowRuns walks rows of a batch in runs: those mask sets when it is not
// nil, else those sel lists (in its order), else all n.
type rowRuns struct {
	mask []uint64
	sel  []int32
	n    int
	at   int     // the next word, selection entry or row
	buf  []int32 // a mask's run listed
}

func runsOf(b *value.Batch, mask []uint64) rowRuns {
	return rowRuns{mask: mask, sel: b.Sel, n: b.Rows}
}

// count is the number of rows the walk visits.
func (it *rowRuns) count() int {
	switch {
	case it.mask != nil:
		return expr.MaskCount(it.mask)
	case it.sel != nil:
		return len(it.sel)
	}
	return it.n
}

// listed reports whether the walk is a selection's, whose runs are lists.
func (it *rowRuns) listed() bool { return it.mask == nil && it.sel != nil }

// next returns the next run and whether there was one. A mask's run lists
// its rows only when list is set.
func (it *rowRuns) next(list bool) (rn run, ok bool) {
	switch {
	case it.listed():
		rn.rows = it.sel[it.at:min(it.at+runLen, len(it.sel))]
		it.at += len(rn.rows)
		return rn, len(rn.rows) > 0
	case it.mask == nil:
		rn = run{rows: identity[:min(runLen, it.n-it.at)], base: it.at, dense: true}
		it.at += len(rn.rows)
		return rn, len(rn.rows) > 0
	}
	rn = run{base: it.at << 6, words: it.mask[it.at:min(it.at+runLen/64, len(it.mask))]}
	it.at += len(rn.words)
	if list {
		if it.buf == nil {
			it.buf = value.GetSelLen(runLen)
		}
		rn.rows = expr.AppendMaskRows(it.buf[:0], rn.words, 0)
	}
	return rn, len(rn.words) > 0
}

func (it *rowRuns) rewind() { it.at = 0 }

// release hands the run buffer and the mask back to their pools.
func (it *rowRuns) release() {
	value.PutSel(it.buf)
	value.PutHashes(it.mask)
	it.buf, it.mask = nil, nil
}

// acc is one aggregate's accumulator: fn over the input column col (-1
// for COUNT(*)), bound to v, a slot per group. cnt counts each slot's
// non-NULL inputs once v has shown a NULL, and always for an extreme;
// until then the slots' row counts stand in for it.
type acc struct {
	fn      AggFunc
	col     int
	v       *value.Vec
	counted bool       // a merged average: the column after col holds its counts
	w       *value.Vec // those counts, summed into i
	total   bool       // a merged count: a sum that is 0, not NULL, over no input
	checked bool       // an INT sum that must catch leaving int64
	cnt     []int64
	i       []int64
	f       []float64
	s       []string
}

// specAccs appends the accumulators of specs to accs.
func specAccs(accs []acc, specs []AggSpec) []acc {
	for _, sp := range specs {
		accs = append(accs, acc{fn: sp.Func, col: sp.Col})
	}
	return accs
}

// folder is an aggregation in progress: the accumulators and each slot's
// row count.
type folder struct {
	rows  []int64
	order []int32 // the direct tier's slots in first-seen order, pooled
	accs  []acc
	arena *value.Arena
	ovf   int64 // its sign is set once a checked sum left int64
	// sink is a slot whose sums nobody reads (a group-join's misses), so
	// they may leave int64; -1 when there is none.
	sink int32
}

func zeros(a *value.Arena, n int) []int64 {
	s := a.Ints(n)
	clear(s)
	return s
}

// newFolder makes n slots of the accumulators accs, typed by the columns of
// b they read, and binds them to b for rows of its rows.
func newFolder(n int, accs []acc, b *value.Batch, rows int, a *value.Arena) folder {
	f := folder{rows: zeros(a, n), accs: accs, arena: a, sink: -1}
	for k := range f.accs {
		ac := &f.accs[k]
		if ac.col < 0 || ac.fn == Count {
			continue
		}
		switch extreme, kind := ac.fn == Min || ac.fn == Max, b.Cols[ac.col].Kind; {
		case extreme && kind == value.KindString:
			ac.cnt, ac.s = zeros(a, n), make([]string, n)
		case extreme && kind == value.KindFloat:
			ac.cnt, ac.f = zeros(a, n), a.Floats(n)
		case extreme:
			ac.cnt, ac.i = zeros(a, n), a.Ints(n)
		case ac.fn == Avg || ac.fn == avgSum || kind == value.KindFloat:
			ac.f = a.Floats(n)
			clear(ac.f)
			if ac.counted {
				ac.i = zeros(a, n)
			}
		default:
			ac.i = zeros(a, n)
		}
	}
	f.bind(b, rows)
	return f
}

// bind points the accumulators at the columns of b they fold. rows is how
// many rows will be folded: an INT sum is checked unless the column's range
// shows that many of its cells cannot leave int64.
func (f *folder) bind(b *value.Batch, rows int) {
	for k := range f.accs {
		ac := &f.accs[k]
		if ac.col < 0 {
			continue
		}
		ac.v = b.Cols[ac.col]
		if ac.counted {
			ac.w = b.Cols[ac.col+1]
		}
		if ac.v.Null != nil && ac.cnt == nil {
			ac.cnt = append(f.arena.Ints(len(f.rows))[:0], f.rows...) // every row so far held a value
		}
		lo, hi, ok := ac.v.Range()
		m := max(abs(lo), abs(hi))
		ac.checked = ac.i != nil && !ac.counted && ac.v.Kind == value.KindInt && !(ok && (m == 0 || uint64(rows) <= math.MaxInt64/m))
	}
}

func abs(x int64) uint64 {
	if x < 0 {
		return -uint64(x)
	}
	return uint64(x)
}

// plain reports whether the slots' row counts and INT sums over cells with
// no NULL answer every accumulator, so a fold need list no row, and how
// many sums there are: the accumulators summed reports.
func (f *folder) plain() (sums int, ok bool) {
	for k := range f.accs {
		switch ac := &f.accs[k]; {
		case ac.v == nil || ac.fn == Count && ac.v.Null == nil: // the slots' row counts answer these
		case ac.fn == Sum && ac.i != nil && !ac.counted && ac.cnt == nil && ac.v.Kind == value.KindInt && ac.v.Null == nil:
			sums++
		default:
			return 0, false
		}
	}
	return sums, true
}

// summed reports whether a plain folder's accumulator is one of its sums.
func (ac *acc) summed() bool { return ac.v != nil && ac.fn != Count }

// count adds a run's rows to their slots' counts. Over two slots the ids
// add up in a register and no count waits on the last.
func (f *folder) count(idx []int32) {
	switch rows := f.rows; len(rows) {
	case 1:
		rows[0] += int64(len(idx))
	case 2:
		ones := int64(0)
		for _, id := range idx {
			ones += int64(id)
		}
		rows[0], rows[1] = rows[0]+int64(len(idx))-ones, rows[1]+ones
	default:
		for _, id := range idx {
			rows[id]++
		}
	}
}

// fold folds the listed rows of rn into their slots, row j into idx[j], in
// every accumulator.
func (f *folder) fold(rn run, idx []int32) {
	for k := range f.accs {
		ac := &f.accs[k]
		switch v, extreme := ac.v, ac.fn == Min || ac.fn == Max; {
		case v == nil:
		case ac.fn == Count:
			countInto(ac.cnt, v.Null, rn, idx)
		case extreme && ac.s != nil:
			extremeInto(ac.s, ac.cnt, v.S, v.Null, ac.fn == Max, rn, idx)
		case extreme && ac.f != nil:
			extremeInto(ac.f, ac.cnt, v.F, v.Null, ac.fn == Max, rn, idx)
		case extreme:
			extremeInto(ac.i, ac.cnt, v.I, v.Null, ac.fn == Max, rn, idx)
		case v.Kind == value.KindFloat && ac.f != nil:
			sumInto(ac.f, ac.cnt, v.F, v.Null, rn, idx)
		case v.Kind == value.KindInt && ac.f != nil:
			sumInto(ac.f, ac.cnt, v.I, v.Null, rn, idx)
		case v.Kind == value.KindInt && ac.checked:
			f.ovf |= sumChecked(ac.i, ac.cnt, v.I, v.Null, rn, idx, f.sink)
		case v.Kind == value.KindInt:
			sumInto(ac.i, ac.cnt, v.I, v.Null, rn, idx)
		default: // a column of another kind adds up to zeros
			countInto(ac.cnt, v.Null, rn, idx)
		}
		if ac.counted {
			sumInto(ac.i, nil, ac.w.I, nil, rn, idx)
		}
	}
}

// countInto counts the rows that are not NULL under null into cnt, once
// there is one (bind); until then the slots' row counts are the answer.
func countInto(cnt []int64, null []uint64, rn run, idx []int32) {
	if cnt == nil {
		return
	}
	null = nullsFrom(null, rn)
	for j, r := range rn.rows {
		if !isNull(null, r) {
			cnt[idx[j]]++
		}
	}
}

// sumInto adds the non-NULL values of col into their slots, as A and in
// row order (the order the row operator adds in, which a float sum shows),
// counting them into cnt when there is one: a merge binds partials with
// and without a bitmap, and cnt, once made, counts every value.
func sumInto[A, T int64 | float64](acc []A, cnt []int64, col []T, null []uint64, rn run, idx []int32) {
	col, null = from(col, rn), nullsFrom(null, rn)
	for j, r := range rn.rows {
		if isNull(null, r) {
			continue
		}
		acc[idx[j]] += A(col[r])
		if cnt != nil {
			cnt[idx[j]]++
		}
	}
}

// sumChecked is sumInto of INT cells into INT sums, returning a word whose
// sign is set if any sum but slot sink's left int64 on the way.
func sumChecked(acc, cnt, col []int64, null []uint64, rn run, idx []int32, sink int32) (ovf int64) {
	col, null = from(col, rn), nullsFrom(null, rn)
	for j, r := range rn.rows {
		k := idx[j]
		if isNull(null, r) {
			continue
		}
		if cnt != nil {
			cnt[k]++
		}
		x := col[r]
		s, d := acc[k]+x, int64(k-sink)
		ovf |= (acc[k] ^ s) & (x ^ s) & (d | -d) // d | -d is negative unless k is the sink
		acc[k] = s
	}
	return ovf
}

// extremeInto keeps each slot's least (or, with max set, greatest) non-NULL
// value under value.Compare's order — NaN before every number, and of
// values that compare equal the first seen — and counts the non-NULL rows.
func extremeInto[T int64 | float64 | string](acc []T, cnt []int64, col []T, null []uint64, max bool, rn run, idx []int32) {
	col, null = from(col, rn), nullsFrom(null, rn)
	for j, r := range rn.rows {
		if isNull(null, r) {
			continue
		}
		k, x := idx[j], col[r]
		a := acc[k]
		// x != x holds only for a float NaN.
		if cnt[k] == 0 || (!max && (x < a || (x != x && a == a))) || (max && (x > a || (a != a && x == x))) {
			acc[k] = x
		}
		cnt[k]++
	}
}

// result is the output column of accumulator k over the slots order lists
// (nil: the first n). Every aggregate but a count is NULL where its slot
// folded no value; result kinds are the row aggState's.
func (f *folder) result(k int, order []int32, n int) *value.Vec {
	ac := &f.accs[k]
	if order != nil {
		n = len(order)
	}
	cnt := ac.cnt
	if cnt == nil {
		cnt = f.rows
	}
	out := &value.Vec{Kind: value.KindInt}
	if ac.v != nil {
		out.Kind = resultKind(ac.fn, ac.v.Kind)
	}
	switch {
	case ac.fn == Count || ac.total:
		if ac.total {
			cnt = ac.i
		}
		out.I = pick(cnt, order, f.arena.Ints(n))
		return out // never NULL
	case ac.fn == Avg:
		if ac.counted {
			cnt = ac.i
		}
		out.F = pick(ac.f, order, f.arena.Floats(n))
		for g := range out.F {
			out.F[g] /= float64(cnt[slot(order, g)])
		}
	case ac.f != nil:
		out.F = pick(ac.f, order, f.arena.Floats(n))
	case ac.s != nil:
		out.S = pick(ac.s, order, make([]string, n))
	case ac.i != nil:
		out.I = pick(ac.i, order, f.arena.Ints(n))
	default: // a column of another kind adds up to zeros
		out.I = f.arena.Ints(n)
		clear(out.I)
	}
	for g := 0; g < n; g++ {
		if cnt[slot(order, g)] == 0 {
			if out.Null == nil {
				out.Null = make([]uint64, expr.MaskWords(n))
			}
			out.Null[g>>6] |= 1 << (g & 63)
		}
	}
	return out
}

// slot is the slot of output group g: order's gth, or g when order is nil.
func slot(order []int32, g int) int {
	if order == nil {
		return g
	}
	return int(order[g])
}

// pick fills dst with the slots of src that order lists, or with its first
// len(dst) when order is nil.
func pick[T any](src []T, order []int32, dst []T) []T {
	if order == nil {
		copy(dst, src)
		return dst
	}
	for g, k := range order {
		dst[g] = src[k]
	}
	return dst
}

// results appends to dst the output columns of every accumulator, as
// result makes them; with a sum that left int64 they are an error.
func (f *folder) results(dst []*value.Vec, order []int32, n int) ([]*value.Vec, error) {
	if f.ovf < 0 {
		return nil, fmt.Errorf("algebra: SUM: %w", value.ErrIntRange)
	}
	for k := range f.accs {
		dst = append(dst, f.result(k, order, n))
	}
	return dst, nil
}

// foldRuns folds the rows runs walks. With a key it is the direct tier's
// pass: cell − lo is a row's slot, and a slot's first row lists it in
// order. Without one every row folds into slot 0. A plain fold lists no
// row: without a key it is foldAll; with one it counts each run into its
// slots (not over a selection, whose runs are lists), adding the first
// sum that cannot leave int64 as it goes, and then adds each other sum in
// a pass of its own, checked (in a pass that adds into memory the check
// costs about a fifth of its time, so the sum that needs none has none).
func (f *folder) foldRuns(runs *rowRuns, key *value.Vec, lo int64) {
	switch {
	case f.order != nil:
	case key == nil: // the global aggregate's one slot is there over no rows too
		f.order = append(value.GetSel(), 0)
	default:
		f.order = value.GetSelLen(len(f.rows))[:0]
	}
	sums, plain := f.plain()
	if plain && key == nil {
		f.foldAll(runs, 0, sums)
		return
	}
	order, n := f.order[:cap(f.order)], len(f.order)
	if plain && !runs.listed() {
		var fsums, fcells []int64
		fused := -1
		for k := range f.accs {
			if ac := &f.accs[k]; fused < 0 && ac.summed() && !ac.checked {
				fused, fsums, fcells = k, ac.i, ac.v.I
			}
		}
		for rn, ok := runs.next(false); ok; rn, ok = runs.next(false) {
			n = directSums(rn, key.I, lo, f.rows, order, n, fsums, fcells)
			for k := range f.accs {
				if ac := &f.accs[k]; ac.summed() && k != fused {
					f.ovf |= sumRun(rn, key.I, lo, ac.i, ac.v.I)
				}
			}
		}
		f.order = order[:n]
		return
	}
	idx := value.GetSelLen(runLen)
	if key == nil {
		clear(idx)
	}
	for rn, ok := runs.next(true); ok; rn, ok = runs.next(true) {
		if key == nil {
			f.rows[0] += int64(len(rn.rows))
		} else {
			n = directSlots(idx, rn, key.I, lo, f.rows, order, n)
		}
		f.fold(rn, idx[:len(rn.rows)])
	}
	f.order = order[:n]
	value.PutSel(idx)
}

// foldAll folds every row runs walks into slot g of a plain folder with
// sums sums: g's count grows by the walk's, a mask's popcount, each sum by
// its cells' total, and no row is listed. The sums are checked, but for
// the sink's.
func (f *folder) foldAll(runs *rowRuns, g int32, sums int) {
	f.rows[g] += int64(runs.count())
	for rn, ok := runs.next(false); ok && sums > 0; rn, ok = runs.next(false) {
		for k := range f.accs {
			if ac := &f.accs[k]; ac.summed() {
				var ovf int64
				if ac.i[g], ovf = total(rn, ac.v.I, ac.i[g]); g != f.sink {
					f.ovf |= ovf
				}
			}
		}
	}
}

// directSlots writes to ids each listed row's slot, its cell − lo, and
// counts the row into it; a slot's first row lists it in order, after the
// n slots there. It returns the number listed.
func directSlots(ids []int32, rn run, col []int64, lo int64, counts []int64, order []int32, n int) int {
	col = from(col, rn)
	for j, r := range rn.rows {
		k := int32(col[r] - lo)
		ids[j] = k
		if counts[k] == 0 {
			order[n] = k
			n++
		}
		counts[k]++
	}
	return n
}

// directSums is directSlots over a dense or a mask's run with no slot
// written down: each row counted into its slot and, unless sums is nil,
// its cell of cells added into sums there.
func directSums(rn run, col []int64, lo int64, counts []int64, order []int32, n int, sums, cells []int64) int {
	col, cells = from(col, rn), from(cells, rn)
	if rn.dense {
		for i, x := range col[:len(rn.rows)] {
			k := x - lo
			if counts[k] == 0 {
				order[n] = int32(k)
				n++
			}
			counts[k]++
			if sums != nil {
				sums[k] += cells[i]
			}
		}
		return n
	}
	for i, w := range rn.words {
		for ; w != 0; w &= w - 1 {
			r := i<<6 + bits.TrailingZeros64(w)
			k := col[r] - lo
			if counts[k] == 0 {
				order[n] = int32(k)
				n++
			}
			counts[k]++
			if sums != nil {
				sums[k] += cells[r]
			}
		}
	}
	return n
}

// sumRun adds each cell of cells at the rows of a dense or a mask's run
// into sums, at the slot its cell of key names (key − lo), and returns a
// word whose sign is set if a sum left int64 on the way.
func sumRun(rn run, key []int64, lo int64, sums, cells []int64) (ovf int64) {
	key, cells = from(key, rn), from(cells, rn)
	add := func(k, c int64) {
		s := sums[k] + c
		ovf |= (sums[k] ^ s) & (c ^ s)
		sums[k] = s
	}
	if rn.dense {
		for i, x := range key[:len(rn.rows)] {
			add(x-lo, cells[i])
		}
	}
	for i, w := range rn.words {
		for ; w != 0; w &= w - 1 {
			r := i<<6 + bits.TrailingZeros64(w)
			add(key[r]-lo, cells[r])
		}
	}
	return ovf
}

// total adds the cells of a run — dense, a mask's or listed — to s,
// returning the sum and a word whose sign is set if it left int64 on the
// way.
func total(rn run, cells []int64, s int64) (_, ovf int64) {
	cells = from(cells, rn)
	add := func(c int64) {
		t := s + c
		ovf |= (s ^ t) & (c ^ t)
		s = t
	}
	switch {
	case rn.dense:
		for _, c := range cells[:len(rn.rows)] {
			add(c)
		}
	case rn.words == nil:
		for _, r := range rn.rows {
			add(cells[r])
		}
	}
	for i, w := range rn.words {
		for ; w != 0; w &= w - 1 {
			add(cells[i<<6+bits.TrailingZeros64(w)])
		}
	}
	return s, ovf
}

// direct is the direct tier's output batch: with a key, the cell of each
// listed slot as a column of the key's kind, then the aggregates over
// those slots.
func (f *folder) direct(schema *value.Schema, key *value.Vec, lo int64, span int) (*value.Batch, error) {
	out := &value.Batch{Schema: schema, Rows: len(f.order), Cols: make([]*value.Vec, 0, schema.Len())}
	if key != nil {
		kv := &value.Vec{Kind: key.Kind, I: f.arena.Ints(len(f.order)), Lo: lo, Hi: lo + int64(span) - 1, Ranged: key.Kind == value.KindInt}
		for g, k := range f.order {
			kv.I[g] = lo + int64(k)
		}
		out.Cols = append(out.Cols, kv)
	}
	cols, err := f.results(out.Cols, f.order, 0)
	out.Cols = cols
	value.PutSel(f.order)
	return out, err
}

// grouped folds the rows of b, rows many, into the groups of its key
// columns keys (groupRows) and is the output batch: each group's key, then
// its aggregates.
func grouped(b *value.Batch, keys []int, accs []acc, rows int, schema *value.Schema, a *value.Arena) (*value.Batch, error) {
	g := groupRows(b, keys)
	g.arena = a
	f := newFolder(g.n, accs, b, rows, a)
	f.count(g.ids)
	f.fold(run{rows: g.sel}, g.ids)
	aggs, err := f.results(make([]*value.Vec, 0, len(accs)), nil, g.n)
	out, _ := g.result(schema, aggs)
	return out, err
}

// AggregateBatch groups b by the groupBy columns (empty = one global
// group) and computes the aggregate specs over the column vectors. Output
// schema, group order (first-seen) and NULL handling match the row
// Aggregate exactly; the result is a dense batch. b is consumed.
func AggregateBatch(b *value.Batch, groupBy []int, specs []AggSpec) (*value.Batch, Stats, error) {
	return AggregateRows(b, nil, groupBy, specs, nil)
}

// AggregateRows is AggregateBatch over the rows of b that mask sets (nil:
// its selection), the output's payloads lent by a. b and mask are
// consumed. A SUM over INT that leaves int64 is an error.
func AggregateRows(b *value.Batch, mask []uint64, groupBy []int, specs []AggSpec, a *value.Arena) (*value.Batch, Stats, error) {
	schema, err := aggSchema(b.Schema, groupBy, specs)
	if err != nil {
		value.PutHashes(mask)
		return nil, Stats{}, err
	}
	var buf [4]acc
	accs := specAccs(buf[:0], specs)
	runs := runsOf(b, mask)
	defer runs.release()
	n := runs.count()
	var key *value.Vec
	lo, span, direct := int64(0), 1, true
	if len(groupBy) > 0 {
		keys, _ := keyVecs(b, groupBy)
		key = keys[0]
		lo, span, direct = directRuns(keys, &runs)
	}
	var out *value.Batch
	if direct {
		f := newFolder(span, accs, b, n, a)
		f.foldRuns(&runs, key, lo)
		value.PutSel(b.Sel)
		b.Sel = nil
		out, err = f.direct(schema, key, lo, span)
	} else {
		if mask != nil {
			b.Sel, runs.mask = expr.MaskRows(mask), nil
		}
		out, err = grouped(b, groupBy, accs, n, schema, a)
	}
	if err != nil {
		return nil, Stats{}, err
	}
	return out, Stats{TuplesRead: n, TuplesEmitted: out.Rows, Hashes: n}, nil
}

// MergePartials combines per-fragment partial aggregates, made with
// PartialSpecs(specs), into the final result — the coordinator's half of
// the two-phase distributed aggregation. It regroups the partials on their
// leading groupByLen columns and folds every partial column into its final one — counts and
// sums add up, minima and maxima fold again, an average is its summed sums
// over its summed counts. Group order is first-seen across the partials,
// in order. Partials keyed on one INT or BOOL column that directRuns admits
// over all their rows fold straight into slots, one partial after the
// other; any others are concatenated and grouped. The output's payloads
// are lent by a; the partials are consumed.
func MergePartials(partials []*value.Batch, groupByLen int, specs []AggSpec, a *value.Arena) (*value.Batch, Stats, error) {
	if len(partials) == 0 {
		return nil, Stats{}, fmt.Errorf("algebra: no partial aggregates to merge")
	}
	schema, err := mergeSchema(partials[0].Schema, groupByLen, specs)
	if err != nil {
		return nil, Stats{}, err
	}
	// The accumulators read the partial columns PartialSpecs lays out.
	var buf [4]acc
	accs, col := buf[:0], groupByLen
	for _, sp := range specs {
		ac := acc{fn: sp.Func, col: col, total: sp.Func == Count, counted: sp.Func == Avg}
		if ac.total {
			ac.fn = Sum
		}
		if ac.counted {
			col++
		}
		accs, col = append(accs, ac), col+1
	}
	n, first := 0, partials[0]
	for _, p := range partials {
		if n += p.Len(); first.Len() == 0 {
			first = p
		}
	}
	var out *value.Batch
	if lo, span, direct := mergeSpan(partials, groupByLen, n); direct {
		f := newFolder(span, accs, first, n, a)
		var key *value.Vec
		for _, p := range partials {
			if groupByLen > 0 {
				key = p.Cols[0]
			}
			f.bind(p, n)
			runs := runsOf(p, nil)
			f.foldRuns(&runs, key, lo)
			runs.release()
			value.PutSel(p.Sel)
			p.Sel = nil
		}
		if groupByLen > 0 {
			key = first.Cols[0]
		}
		out, err = f.direct(schema, key, lo, span)
	} else {
		keys := make([]int, groupByLen)
		for i := range keys {
			keys[i] = i
		}
		out, err = grouped(value.ConcatBatches(partials[0].Schema, partials, a), keys, accs, n, schema, a)
	}
	if err != nil {
		return nil, Stats{}, err
	}
	return out, Stats{TuplesRead: n, TuplesEmitted: out.Rows}, nil
}

// mergeSpan decides whether partials fold straight into slots: keyed on no
// column, or on one INT or BOOL column without NULLs whose cells, over all
// of them, directRuns would admit for their n rows; and with each column
// of one kind in every partial with rows. The bounds are the partials'
// ranges where they have them, and their cells if those are too wide.
func mergeSpan(partials []*value.Batch, groupByLen, n int) (lo int64, span int, ok bool) {
	if groupByLen > 1 {
		return 0, 0, false
	}
	var kinds []value.Kind
	for _, p := range partials {
		if p.Len() == 0 {
			continue
		}
		for c, v := range p.Cols {
			if len(kinds) == c {
				kinds = append(kinds, v.Kind)
			}
			if kinds[c] != v.Kind {
				return 0, 0, false
			}
		}
		if v := p.Cols[0]; groupByLen > 0 && (v.Kind != value.KindInt && v.Kind != value.KindBool || v.KindOnly() || v.Null != nil) {
			return 0, 0, false
		}
	}
	if groupByLen == 0 || kinds == nil {
		return 0, 1, true
	}
	for _, ranged := range []bool{true, false} {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, p := range partials {
			if p.Len() == 0 {
				continue
			}
			v := p.Cols[0]
			plo, phi, ok := v.Range()
			if !ranged || !ok {
				runs := runsOf(p, nil)
				plo, phi = bounds(v, &runs)
			}
			lo, hi = min(lo, plo), max(hi, phi)
		}
		if span, ok := spanOf(lo, hi, n); ok {
			return lo, span, true
		}
	}
	return 0, 0, false
}
