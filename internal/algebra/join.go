package algebra

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/expr"
	"repro/internal/value"
)

func checkJoinKeys(l, r *value.Schema, lcols, rcols []int) error {
	if len(lcols) == 0 || len(lcols) != len(rcols) {
		return fmt.Errorf("algebra: join needs matching non-empty key lists, got %v and %v", lcols, rcols)
	}
	if err := checkKeys("left", l, lcols); err != nil {
		return err
	}
	return checkKeys("right", r, rcols)
}

func checkKeys(side string, s *value.Schema, cols []int) error {
	for _, c := range cols {
		if c < 0 || c >= s.Len() {
			return fmt.Errorf("algebra: %s join key %d out of range for %s", side, c, s)
		}
	}
	return nil
}

// JoinTable is the build half of the hash join: a batch's rows entered into
// a rowTable on their key columns, the rows of one key chained in insertion
// order and appended at the tail (a heavy-hitter key costs no chain walk).
// Once built it is only read, so any number of probes may share it — the
// broadcast join builds its small side once and probes it with every slot
// of the big one. A dense integer key (directSpan) indexes the table by
// its cell, and a probe reads its own column's cells with no word copied
// and nothing confirmed. Other keys are their own words (Batch.KeyWords)
// when they are one fixed-width column without NULLs; a probe then
// confirms a candidate by comparing cells and takes no hash.
type JoinTable struct {
	b      *value.Batch
	sel    []int32 // the build rows, in order
	keys   []*value.Vec
	direct bool
	exact  bool
	repeat bool     // some key is held by several build rows
	table  rowTable // unused when direct
	// dense[x-lo], when direct, is one plus the first build row of key x.
	lo    int64
	dense []int32
	// next and tail, indexed by physical build row, chain the rows of one
	// key from its first row; tail is kept at that row only, and so is
	// word, the exact key a candidate is confirmed against.
	next, tail []int32
	word       []uint64
}

// BuildJoinTable enters the selected rows of b into a table on the key
// columns. b is consumed: the table reads its columns until Release. Stats
// count one hash per build row, NULL keys included.
func BuildJoinTable(b *value.Batch, cols []int) (*JoinTable, Stats, error) {
	if len(cols) == 0 {
		return nil, Stats{}, fmt.Errorf("algebra: join table needs key columns")
	}
	if err := checkKeys("build", b.Schema, cols); err != nil {
		return nil, Stats{}, err
	}
	t := new(JoinTable)
	return t, t.build(b, cols), nil
}

func (t *JoinTable) build(b *value.Batch, cols []int) Stats {
	t.b, t.sel = b, b.TakeSel()
	keys, nullable := keyVecs(b, cols)
	t.keys = keys
	t.next, t.tail = value.GetSelLen(b.Rows), value.GetSelLen(b.Rows)
	stats := Stats{TuplesRead: len(t.sel), Hashes: len(t.sel)}
	var span int
	if t.lo, span, t.direct = directSpan(keys, t.sel); t.direct {
		t.dense = value.GetSelLen(span)
		clear(t.dense)
		dense, next, tail, col := t.dense, t.next, t.tail, keys[0].I
		for _, row := range t.sel {
			next[row] = -1
			if head := &dense[col[row]-t.lo]; *head == 0 {
				*head, tail[row] = row+1, row
			} else {
				next[tail[*head-1]], tail[*head-1], t.repeat = row, row, true
			}
		}
		return stats
	}
	words, exact := b.KeyWords(t.sel, cols)
	t.exact = exact
	t.table = newRowTable(len(t.sel))
	if exact {
		t.word = value.GetHashes(b.Rows)
	}
	table, next, tail, word := t.table, t.next, t.tail, t.word
	for i, w := range words {
		row := t.sel[i]
		if nullable && nullKey(keys, row) {
			continue // NULL keys never join
		}
		next[row] = -1
		h := tableHash(w, exact)
		for p := table.home(h); ; p = table.step(p) {
			s := table.slots[p]
			if s == 0 {
				table.slots[p], tail[row] = slotFor(h, row), row
				if exact {
					word[row] = w
				}
				break
			}
			if e := slotID(s, h); e >= 0 && (exact && word[e] == w || !exact && sameKey(keys, e, keys, row)) {
				next[tail[e]], tail[e] = row, row
				break
			}
		}
	}
	value.PutHashes(words)
	return stats
}

// Release hands the table's scratch back to the pools.
func (t *JoinTable) Release() {
	for _, s := range [][]int32{t.sel, t.next, t.tail, t.dense} {
		value.PutSel(s)
	}
	for _, s := range [][]uint64{t.word, t.table.slots} {
		value.PutHashes(s)
	}
	*t = JoinTable{}
}

// Probe joins the selected rows of p on the key columns pcols against the
// table. The output is p's columns after the build side's when probeLeft is
// false, before them when it is set; matches come in probe order, the
// build rows of one key in insertion order. Only the output columns in need
// are laid out: the others leave as kind-only vectors, so a build-side
// column nobody reads — often the join key itself — is not copied, and the
// payloads that are come from a. p is consumed. Stats count one hash per
// probe row whose key is not NULL.
func (t *JoinTable) Probe(p *value.Batch, pcols []int, probeLeft bool, need value.ColSet, a *value.Arena) (*value.Batch, Stats, error) {
	if err := t.checkProbe(p.Schema, pcols); err != nil {
		return nil, Stats{}, err
	}
	bIdx, pIdx, once, stats := t.match(p, pcols)

	// The usual join — a foreign key into a primary key — matches every
	// probe row at most once: its output is the probe side's own columns
	// under the selection of the matched rows, with the build side's laid
	// out along them, and only those are copied. Otherwise both sides are
	// gathered into a dense batch.
	build := t.b
	l, r := build, p
	if probeLeft {
		l, r = p, build
	}
	out := &value.Batch{Schema: l.Schema.Concat(r.Schema), Rows: len(pIdx), Cols: make([]*value.Vec, 0, len(l.Cols)+len(r.Cols))}
	if once {
		out.Rows, out.Sel = p.Rows, pIdx
	}
	for _, side := range []*value.Batch{l, r} {
		for _, vec := range side.Cols {
			if !need.Has(len(out.Cols)) {
				vec = vec.Drop()
			}
			switch {
			case side == build && once:
				vec = vec.Scatter(bIdx, pIdx, p.Rows, a)
			case side == build:
				vec = vec.Gather(bIdx, a)
			case !once:
				vec = vec.Gather(pIdx, a)
			}
			out.Cols = append(out.Cols, vec)
		}
	}
	if !once {
		value.PutSel(pIdx)
	}
	value.PutSel(bIdx)
	return out, stats, nil
}

func (t *JoinTable) checkProbe(probe *value.Schema, pcols []int) error {
	if len(pcols) != len(t.keys) {
		return fmt.Errorf("algebra: probe keys %v against %d build keys", pcols, len(t.keys))
	}
	return checkKeys("probe", probe, pcols)
}

// match pairs build row bIdx[k] with probe row pIdx[k] for every match of
// the selected rows of p, in output order. once stays true while no probe
// row has met a key that several build rows hold.
func (t *JoinTable) match(p *value.Batch, pcols []int) (bIdx, pIdx []int32, once bool, stats Stats) {
	psel := p.TakeSel()
	pkeys, pnull := keyVecs(p, pcols)
	stats = Stats{TuplesRead: len(psel)}
	next := t.next
	bIdx, pIdx, once = value.GetSelLen(len(psel))[:0], value.GetSelLen(len(psel))[:0], true
	switch {
	case (t.direct || t.exact) && !(pkeys[0].Fixed() && pkeys[0].Kind == t.keys[0].Kind):
		// Cells of another kind, or none, never equal a key of these tiers.
		for _, row := range psel {
			if !pnull || !nullKey(pkeys, row) {
				stats.Hashes++
			}
		}
	case t.direct:
		dense, col, key := t.dense, pkeys[0].I, pkeys[0]
		for _, row := range psel {
			if key.IsNull(int(row)) {
				continue
			}
			stats.Hashes++
			// A cell outside [lo, lo+len(dense)) wraps past the bound.
			if x := uint64(col[row] - t.lo); x < uint64(len(dense)) && dense[x] != 0 {
				for e := dense[x] - 1; ; once = false {
					bIdx, pIdx = append(bIdx, e), append(pIdx, row)
					if e = next[e]; e < 0 {
						break
					}
				}
			}
		}
	default:
		// The table's own word decides the probe's: a cell against exact
		// keys, a hash against hashed ones.
		var pw []uint64
		if t.exact {
			pw = pkeys[0].Words(psel)
		} else {
			pw = p.HashCols(psel, pcols)
		}
		table, word, exact, bkeys := t.table, t.word, t.exact, t.keys
		for j, w := range pw {
			row := psel[j]
			if pnull && nullKey(pkeys, row) {
				continue
			}
			stats.Hashes++
			h := tableHash(w, exact)
			for q := table.home(h); ; q = table.step(q) {
				s := table.slots[q]
				if s == 0 {
					break
				}
				if e := slotID(s, h); e >= 0 && (exact && word[e] == w || !exact && sameKey(bkeys, e, pkeys, row)) {
					for ; ; once = false {
						bIdx, pIdx = append(bIdx, e), append(pIdx, row)
						if e = next[e]; e < 0 {
							break
						}
					}
					break
				}
			}
		}
		value.PutHashes(pw)
	}
	stats.TuplesEmitted = len(pIdx)
	value.PutSel(psel)
	return bIdx, pIdx, once, stats
}

// GroupJoin is a JoinTable whose build rows are grouped once: a probe folds
// each row into the groups of the build rows it matches, and makes no join
// output. Groups count from 1; group 0 sinks what matches nothing.
type GroupJoin struct {
	t           *JoinTable
	pcols, keys []int // the probe's key columns, the grouped build columns
	n           int   // groups, the sink included
	// first[g-1] is the build row that opened group g, gid[r+1] the group of
	// build row r. sink, when the table is direct-mapped and no key repeats,
	// maps cell x to the group of key lo+min(x, len(sink)-1), and end[x] is
	// the last cell of the run of cells from x on that sink to one group.
	first, gid, sink, end []int32
	specs                 []AggSpec
	out                   *value.Schema
}

// Group groups the build rows on the columns keys (none: the one global
// group) for partial aggregates of specs over probe batches of schema
// probe, joined on its columns pcols.
func (t *JoinTable) Group(keys []int, probe *value.Schema, pcols []int, specs []AggSpec) (*GroupJoin, error) {
	ks, err := aggSchema(t.b.Schema, keys, nil)
	ss, serr := aggSchema(probe, nil, specs)
	if err = errors.Join(err, serr, t.checkProbe(probe, pcols)); err != nil {
		return nil, err
	}
	g := groupRows(&value.Batch{Cols: t.b.Cols, Rows: t.b.Rows, Sel: append(value.GetSel(), t.sel...)}, keys)
	gj := &GroupJoin{t: t, pcols: pcols, keys: keys, n: g.n + 1, first: g.first, gid: make([]int32, t.b.Rows+1), specs: specs,
		out: value.NewSchema(append(ks.Columns(), ss.Columns()...)...)}
	for i, r := range g.sel {
		gj.gid[r+1] = g.ids[i] + 1
	}
	value.PutSel(g.sel)
	value.PutSel(g.ids)
	value.PutHashes(g.table.slots)
	if t.direct && !t.repeat {
		both := make([]int32, 2*len(t.dense)+1)
		sink, end := both[:len(t.dense)+1], both[len(t.dense)+1:]
		for x := len(end) - 1; x >= 0; x-- {
			sink[x], end[x] = gj.gid[t.dense[x]], int32(x) // dense[x] is one plus the key's build row, or 0
			if x+1 < len(end) && sink[x+1] == sink[x] {
				end[x] = end[x+1]
			}
		}
		gj.sink, gj.end = sink, end
	}
	return gj, nil
}

// oneGroup reports the group every cell of the probe key v sinks to when
// there is one: v's range (value.Vec.Range, which bounds every cell a
// walk selects) lies inside the dense table and inside one run of cells
// that sink to one group.
func (gj *GroupJoin) oneGroup(v *value.Vec) (int32, bool) {
	lo, hi, ok := v.Range()
	// Cells below the table wrap past its end; from lo ≥ t.lo on, hi ≥ lo
	// is no more than 2^64 − 1 above t.lo, so y is exact.
	x, y := uint64(lo)-uint64(gj.t.lo), uint64(hi)-uint64(gj.t.lo)
	if !ok || lo > hi || x >= uint64(len(gj.end)) || y > uint64(gj.end[x]) {
		return 0, false
	}
	return gj.sink[x], true
}

// ProbeRows is the partial aggregate over JoinTable.Probe's output, joining
// the rows of p that mask sets (nil: its selection): the groups some probe
// row matched (the global group always) in the build side's order, and the
// Stats of that probe and that aggregate. The output's payloads are lent by
// a; p and mask are consumed. A SUM over INT that leaves int64 is an error.
func (gj *GroupJoin) ProbeRows(p *value.Batch, mask []uint64, a *value.Arena) (out *value.Batch, join, agg Stats, err error) {
	t := gj.t
	var buf [4]acc
	accs := specAccs(buf[:0], gj.specs)
	var f folder // its slots are the groups, and slot 0 sinks what matches nothing
	folded := 0  // (probe row, group) pairs, the sunk included
	if v := p.Cols[gj.pcols[0]]; gj.sink != nil && v.Fixed() && v.Kind == t.keys[0].Kind && v.Null == nil {
		// Every probe row folds into the group its cell sinks to.
		runs := runsOf(p, mask)
		folded = runs.count()
		f = newFolder(gj.n, accs, p, folded, a)
		f.sink = 0
		sums, plain := f.plain()
		var sum *acc // a plain fold's one sum
		for k := range f.accs {
			if f.accs[k].summed() {
				sum = &f.accs[k]
			}
		}
		g, one := gj.oneGroup(v)
		switch {
		case plain && one:
			f.foldAll(&runs, g, sums)
		case plain && sums == 1 && !sum.checked && !runs.listed():
			for rn, ok := runs.next(false); ok; rn, ok = runs.next(false) {
				sinkSums(rn, v.I, t.lo, gj.sink, f.rows, sum.i, sum.v.I)
			}
		default:
			idx := value.GetSelLen(runLen)
			for rn, ok := runs.next(true); ok; rn, ok = runs.next(true) {
				ids := idx[:len(rn.rows)]
				sinkSlots(ids, rn, v.I, t.lo, gj.sink)
				f.count(ids)
				f.fold(rn, ids)
			}
			value.PutSel(idx)
		}
		runs.release()
		value.PutSel(p.Sel)
		p.Sel = nil
		join = Stats{TuplesRead: folded, Hashes: folded}
	} else { // one (probe row, group) pair per match
		if mask != nil {
			p.Sel = expr.MaskRows(mask)
		}
		var ids, rows []int32
		ids, rows, _, join = t.match(p, gj.pcols)
		for k, e := range ids {
			ids[k] = gj.gid[e+1]
		}
		folded = len(rows)
		f = newFolder(gj.n, accs, p, folded, a)
		f.count(ids)
		f.fold(run{rows: rows}, ids)
		value.PutSel(ids)
		value.PutSel(rows)
	}
	keep, first := value.GetSel(), value.GetSel()
	for id := 1; id < gj.n; id++ {
		if len(gj.keys) == 0 {
			keep = append(keep, int32(id))
		} else if f.rows[id] > 0 {
			keep, first = append(keep, int32(id)), append(first, gj.first[id-1])
		}
	}
	join.TuplesEmitted = folded - int(f.rows[0])
	agg = Stats{TuplesRead: join.TuplesEmitted, TuplesEmitted: len(keep), Hashes: join.TuplesEmitted}
	out = &value.Batch{Schema: gj.out, Rows: len(keep), Cols: make([]*value.Vec, 0, gj.out.Len())}
	for _, c := range gj.keys {
		out.Cols = append(out.Cols, t.b.Cols[c].Gather(first, a))
	}
	if out.Cols, err = f.results(out.Cols, keep, 0); err != nil {
		out = nil
	}
	value.PutSel(keep)
	value.PutSel(first)
	return out, join, agg, err
}

// sinkSlots writes to ids the group each listed row's cell sinks to: a
// clamped load a row, no branch on the data. It stays out of line: inlined,
// its loop shares the caller's registers and spills its own.
//
//go:noinline
func sinkSlots(ids []int32, rn run, col []int64, lo int64, sink []int32) {
	col, last := from(col, rn), uint64(len(sink)-1)
	for j, r := range rn.rows {
		ids[j] = sink[min(uint64(col[r]-lo), last)]
	}
}

// sinkSums counts each row of a dense or a mask's run into the group its
// cell sinks to and adds its cell of cells into sums, with no group written
// down.
func sinkSums(rn run, col []int64, lo int64, sink []int32, counts, sums, cells []int64) {
	col, cells, last := from(col, rn), from(cells, rn), uint64(len(sink)-1)
	if rn.dense {
		for i, x := range col[:len(rn.rows)] {
			g := sink[min(uint64(x-lo), last)]
			counts[g]++
			sums[g] += cells[i]
		}
		return
	}
	for i, w := range rn.words {
		for ; w != 0; w &= w - 1 {
			r := i<<6 + bits.TrailingZeros64(w)
			g := sink[min(uint64(col[r]-lo), last)]
			counts[g]++
			sums[g] += cells[r]
		}
	}
}

// HashJoinBatch equi-joins two batches on the given key columns: the
// smaller input builds a JoinTable, the larger probes it. Output column
// order is l ++ r. Both inputs are consumed.
func HashJoinBatch(l, r *value.Batch, lcols, rcols []int) (*value.Batch, Stats, error) {
	return HashJoinBatchNeed(l, r, lcols, rcols, value.AllCols, nil)
}

// HashJoinBatchNeed is HashJoinBatch for a consumer that will read only
// the output columns in need (see JoinTable.Probe); the payloads it makes
// are lent by a.
func HashJoinBatchNeed(l, r *value.Batch, lcols, rcols []int, need value.ColSet, a *value.Arena) (*value.Batch, Stats, error) {
	if err := checkJoinKeys(l.Schema, r.Schema, lcols, rcols); err != nil {
		return nil, Stats{}, err
	}
	build, probe, bcols, pcols, probeLeft := l, r, lcols, rcols, false
	if l.Len() > r.Len() {
		build, probe, bcols, pcols, probeLeft = r, l, rcols, lcols, true
	}
	var t JoinTable
	st := t.build(build, bcols)
	out, pst, _ := t.Probe(probe, pcols, probeLeft, need, a) // keys checked above
	t.Release()
	st.TuplesRead += pst.TuplesRead
	st.Hashes += pst.Hashes
	st.TuplesEmitted = pst.TuplesEmitted
	return out, st, nil
}
