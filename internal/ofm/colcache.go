package ofm

import (
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// The fragment column cache: a columnar image of the fragment's store,
// addressed by slot — cached row i is store slot i, whatever it holds: a
// current version, a dead one kept for older snapshots, or nothing (a
// free slot is a row no snapshot can see). Each row carries its MVCC
// begin/end stamps, and the cache keeps the mask of its current rows, a
// bit per row and 64 rows a word, so one cache serves every snapshot. A
// scan's visibility is a mask: that one at a timestamp at or past every
// stamp folded in, one built from the stamps a word at a time at an older
// timestamp, less the bits of its transaction's pending deletes. The
// filter takes it as its candidate rows, so no row expression sees a dead
// or free row, and the scan hands on the mask of the rows that pass
// (ScanMask): an aggregate folds its set bits, and only a taker that needs
// a selection vector makes one (ScanBatch is the scan with it made).
//
// The cache is built once, by transposing the store (its slab decoded
// straight into vectors, value.NewBatchFromRows), and from then on follows
// it. The store logs the slots its mutators touch (storage/dirty.go); the
// first batch scan after a committed write drains that log — each logged
// slot's current stamps and the offset of its row in the slab — transposes
// the rows it names with the same decoder, and copies them and the stamps
// into the cache rows: work proportional to the rows changed, not to the
// fragment. A version inserted into a reused slot overwrites the cached
// row in place, one appended to the store appends to the vectors. Only a
// lost log (overflow, or Clear) transposes the whole store again.
//
// Beside an INT column that a cached filter compares with a constant
// (VecFilter.SliceCols) the cache keeps a bit-sliced sidecar
// (value.BitSlices): bit k of x − base for 64 rows a word, over the values
// some snapshot can see, if they span at most 16 bits — the filter then
// compares a few words per 64 rows. It is built when a scan's filter first
// asks, never by default; the catch-up sets the bits of the rows it folds,
// re-slices the column when a value falls outside the range and drops the
// sidecar (not to slice that column again until the next transposition)
// once the range needs more than 16 bits. Its bytes are the cache's.
//
// Every INT column carries its range, [Lo, Hi] over the values the cache
// holds (value.Vec.Range): the transposition records it and the catch-up
// widens it before it writes a value outside it, in a fresh header (see
// below). It only widens — a value deleted or vacuumed away leaves it as
// it was — so it bounds every cell some snapshot can see, and the direct
// tier of the aggregate kernels reads its bounds off it, not off the rows.
// It lives in the header, so it costs nothing more to keep.
//
// Concurrency. Scans hold no store lock and keep reading the vectors
// after ScanMask returns, while they materialize. Two rules make
// patching under them safe:
//
//   - ccMu orders everything done inside ScanMask: the stamps, the
//     current mask, the sidecars and the filter kernel (which reads the
//     column words of every row, visible or not) are read under its read
//     lock, and the catch-up and the slicing write them under its write
//     lock. Sidecar words are read only by the filter call scan makes: the
//     batch carries them (Batch.Slices) for that call and never after.
//   - What a scan keeps afterwards is a value.Batch: the Vec headers of
//     its generation plus a mask or selection of rows visible at its
//     snapshot. Headers are never written once published — growth, a
//     flipped NULL bit and a wider range publish fresh headers (over the
//     same backing arrays when capacity allows, but a flip over a copy of
//     the NULL bitmap, whose words hold rows readers select), so the range
//     and bitmap a reader holds still describe every row it selects — and
//     a payload write only ever lands on a row no pinned snapshot can see:
//     the store reuses a slot only after Vacuum freed it at the GC
//     horizon, and a DeleteVersion moves stamps, not values. So the caller
//     of ScanMask must hold its snapshot pinned until it is done with the
//     batch, as every read of the engine does. A standalone OFM (no Horizon) vacuums eagerly with
//     no regard for readers, so it never patches: every write costs it a
//     full rebuild, as before.

// freeStamp in both stamps marks a free slot: begin <= ts < end holds for
// no ts.
const freeStamp = 1

// stampBytes is the footprint of a row's two MVCC stamps.
const stampBytes = 16

// colCache is the cache. Everything but the published headers in cols is
// guarded by OFM.ccMu.
type colCache struct {
	version uint64 // store mutation counter the cache is level with
	rows    int    // store slots covered
	begin   []uint64
	end     []uint64 // 0 = current version
	cols    []*value.Vec
	// current is the mask of the rows with end == 0 and maxStamp bounds
	// every stamp folded in, so a snapshot at or past maxStamp sees
	// exactly the current rows.
	current  []uint64
	maxStamp uint64
	bytes    int64 // accounted against the PE budget
	// slices holds, per column, the bit-sliced sidecar of an INT column a
	// cached filter compares with a constant (nil: none); wide marks the
	// columns whose range proved too wide for one, not looked at again
	// until the next full build. Both are nil until a filter asks.
	slices   []*value.BitSlices
	wide     []bool
	offs, at []int // fold's buffers: the slab offsets of the rows a drain carries, their cache rows
}

// CacheStats counts what the column cache has done.
type CacheStats struct {
	FullBuilds    uint64 // whole-fragment transpositions
	CatchUps      uint64 // dirty-log drains folded into the cache
	RowsFolded    uint64 // log entries those drains applied
	ResidentBytes int64  // current footprint charged to the PE
	SlicedBytes   int64  // the part of ResidentBytes the bit-sliced sidecars hold
}

// Add accumulates b into s (the engine sums a table's fragments).
func (s *CacheStats) Add(b CacheStats) {
	s.FullBuilds += b.FullBuilds
	s.CatchUps += b.CatchUps
	s.RowsFolded += b.RowsFolded
	s.ResidentBytes += b.ResidentBytes
	s.SlicedBytes += b.SlicedBytes
}

// CacheStats returns the fragment's column-cache counters.
func (o *OFM) CacheStats() CacheStats {
	o.ccMu.RLock()
	defer o.ccMu.RUnlock()
	st := o.ccStats
	if o.cc != nil {
		st.ResidentBytes = o.cc.bytes
		for _, s := range o.cc.slices {
			if s != nil {
				st.SlicedBytes += s.Bytes()
			}
		}
	}
	return st
}

// columnCache returns the cache, level with the store and holding the
// bit slices of the columns in slice, plus the bytes this call wrote into
// it to get there (0 on a hit) so the executor can charge them to the
// statement's tenant budget. o.ccMu is then read-locked and the caller
// must unlock it when it has finished with the stamps and the filter
// kernel.
func (o *OFM) columnCache(slice []int) (*colCache, int64) {
	o.ccMu.RLock()
	if cc := o.cc; cc != nil && cc.version == o.store.Version() && !cc.unsliced(slice) {
		return cc, 0
	}
	o.ccMu.RUnlock()

	o.ccMu.Lock()
	built := o.syncCache()
	if o.cc.unsliced(slice) {
		charged := o.cc.bytes
		built += o.cc.slice(slice)
		o.chargeMem(o.cc.bytes - charged)
	}
	o.ccMu.Unlock()

	// Another scan may catch the cache up further before the read lock is
	// back; any later state serves this snapshot just as well.
	o.ccMu.RLock()
	return o.cc, built
}

// syncCache brings the cache level with the store — by catch-up when the
// store's dirty-slot log can say what changed, by transposing the whole
// store otherwise — and returns the bytes written. Caller holds o.ccMu
// exclusively.
func (o *OFM) syncCache() int64 {
	cost := o.costs()
	if cc := o.cc; cc != nil {
		if cc.version == o.store.Version() {
			return 0 // a concurrent scan got here first
		}
		slab, dirty, slots, version, ok := o.store.DrainDirty(o.ccDirty[:0])
		o.ccDirty = dirty
		if ok {
			charged := cc.bytes
			built := cc.fold(o.cfg.Schema, slab, dirty, slots)
			cc.version = version
			o.chargeMem(cc.bytes - charged)
			o.cfg.PE.Advance(cost.BuildCost(len(dirty)))
			o.ccStats.CatchUps++
			o.ccStats.RowsFolded += uint64(len(dirty))
			return built
		}
	}

	// First build, or the log was lost: transpose the store. Only an OFM
	// with a GC horizon asks the store to log from here on.
	slab, offs, begin, end, version := o.store.SnapshotSlots(o.cfg.Horizon != nil)
	if o.cc != nil {
		o.chargeMem(-o.cc.bytes)
		o.cc = nil
	}
	batch := value.NewBatchFromRows(o.cfg.Schema, slab, offs)
	cc := &colCache{version: version, rows: len(offs), begin: begin, end: end, cols: batch.Cols,
		current: make([]uint64, expr.MaskWords(len(offs)))}
	held := 0
	for i, off := range offs {
		if off < 0 {
			begin[i], end[i] = freeStamp, freeStamp
			continue
		}
		held++
		cc.setCurrent(i, end[i] == 0)
		cc.maxStamp = max(cc.maxStamp, begin[i], end[i])
	}
	for _, vec := range cc.cols {
		cc.bytes += vecBytes(vec)
	}
	cc.bytes += int64(cc.rows)*stampBytes + 8*int64(len(cc.current))
	if o.cfg.Horizon != nil {
		cc.bytes += storage.DirtyLogBytes
	}
	o.chargeMem(cc.bytes)
	// The transposition reads every version once.
	o.cfg.PE.Advance(cost.BuildCost(held))
	o.ccStats.FullBuilds++
	o.cc = cc
	return cc.bytes
}

// chargeMem moves the PE memory budget by delta: the store's versions
// (its memory hook) and the column cache are both charged through it.
func (o *OFM) chargeMem(delta int64) {
	if delta > 0 {
		_ = o.cfg.PE.Alloc(delta) // best effort: Insert checks the budget first
	} else if delta < 0 {
		o.cfg.PE.Free(-delta)
	}
}

// vecBytes approximates a column vector's footprint.
func vecBytes(v *value.Vec) int64 {
	var n int64
	switch v.Kind {
	case value.KindString:
		n = int64(len(v.S)) * 16
		for _, s := range v.S {
			n += int64(len(s))
		}
	case value.KindFloat:
		n = int64(len(v.F)) * 8
	default:
		n = int64(len(v.I)) * 8
	}
	return n + 8*int64(len(v.Null))
}

// fold applies drained log entries to the cache, extending it to slots
// rows first, and returns the bytes written. The entries that carry a row
// — not freed, not stamps-only — are transposed from slab together, by
// the full build's decoder, and each column's payloads and NULL bits are
// copied into their cache rows.
func (cc *colCache) fold(schema *value.Schema, slab []byte, dirty []storage.DirtySlot, slots int) (built int64) {
	cc.offs, cc.at = cc.offs[:0], cc.at[:0]
	for _, d := range dirty {
		if d.Off >= 0 && !d.StampsOnly {
			cc.offs, cc.at = append(cc.offs, d.Off), append(cc.at, d.Slot)
		}
	}
	rows := value.NewBatchFromRows(schema, slab, cc.offs)
	flip := cc.extend(slots, dirty, rows)
	for c, vec := range cc.cols {
		src := rows.Cols[c]
		for k, row := range cc.at {
			switch built += 8; vec.Kind {
			case value.KindString:
				cc.bytes += int64(len(src.S[k]) - len(vec.S[row]))
				built += 8 + int64(len(src.S[k]))
				vec.S[row] = src.S[k]
			case value.KindFloat:
				vec.F[row] = src.F[k]
			default:
				vec.I[row] = src.I[k]
			}
			if vec.IsNull(row) != src.IsNull(k) {
				vec.Null[row>>6] ^= 1 << (row & 63)
			}
		}
	}
	for i := range dirty {
		d := &dirty[i]
		row := d.Slot
		cc.setCurrent(row, false)
		built += stampBytes
		if d.Off < 0 {
			// Freed: drop the strings it pinned and its NULL bits (extend
			// copied those bitmaps); numbers may stay, nobody can select the
			// row.
			cc.begin[row], cc.end[row] = freeStamp, freeStamp
			for _, vec := range cc.cols {
				if vec.IsNull(row) {
					vec.Null[row>>6] &^= 1 << (row & 63)
				}
				if vec.Kind == value.KindString {
					cc.bytes -= int64(len(vec.S[row]))
					vec.S[row] = ""
				}
			}
			continue
		}
		cc.begin[row], cc.end[row] = d.Begin, d.End
		cc.setCurrent(row, d.End == 0)
		cc.maxStamp = max(cc.maxStamp, d.Begin, d.End)
	}
	// A copied bitmap left with no bit set goes, so NULL-free paths apply.
	for c, copied := range flip {
		if vec := cc.cols[c]; copied && !slices.ContainsFunc(vec.Null, func(w uint64) bool { return w != 0 }) {
			cc.bytes -= 8 * int64(len(vec.Null))
			vec.Null = nil
		}
	}
	return built + cc.refreshSlices()
}

// unsliced reports whether a column of cols has no sidecar yet and has not
// proved too wide for one.
func (cc *colCache) unsliced(cols []int) bool {
	for _, c := range cols {
		if cc.slices == nil || cc.slices[c] == nil && !cc.wide[c] {
			return true
		}
	}
	return false
}

// slice gives each column of cols that is unsliced its sidecar, or marks
// it too wide for one, and returns the bytes written.
func (cc *colCache) slice(cols []int) (built int64) {
	if cc.slices == nil {
		cc.slices, cc.wide = make([]*value.BitSlices, len(cc.cols)), make([]bool, len(cc.cols))
	}
	seen := value.GetHashes(len(cc.current))
	defer value.PutHashes(seen)
	cc.seen(seen)
	for _, c := range cols {
		if cc.slices[c] != nil || cc.wide[c] {
			continue
		}
		if vec := cc.cols[c]; vec.Kind == value.KindInt {
			cc.slices[c] = value.SliceInts(vec, seen)
		}
		if cc.slices[c] == nil {
			cc.wide[c] = true
			continue
		}
		cc.bytes += cc.slices[c].Bytes()
		built += cc.slices[c].Bytes()
	}
	return built
}

// seen writes to m the mask of the rows some snapshot sees: begin < end,
// where a current version's end 0 wraps past every stamp and a free
// slot's stamps are equal. Only their values have a say in a sidecar.
func (cc *colCache) seen(m []uint64) {
	for w := range m {
		lo, hi := w<<6, min(w<<6+64, cc.rows)
		end := cc.end[lo:hi]
		var word uint64
		for j, b := range cc.begin[lo:hi] {
			word |= expr.Bit(end[j]-1 >= b) << (j & 63)
		}
		m[w] = word
	}
}

// refreshSlices brings the sidecars level with the rows fold wrote (cc.at):
// it sets their bits, and at the first value out of range slices the
// column afresh from its vector, which holds every new value — wider, or
// from a lower base — or, past MaxSliceWidth bits, drops the sidecar and
// releases its bytes. It returns the bytes written.
func (cc *colCache) refreshSlices() (built int64) {
	for c, s := range cc.slices {
		for i := 0; s != nil && i < len(cc.at); i++ {
			x, row := s.Base, cc.at[i] // a NULL's bits are zero
			if vec := cc.cols[c]; !vec.IsNull(row) {
				x = vec.I[row]
			}
			if !s.Covers(x) {
				cc.bytes -= s.Bytes()
				cc.slices[c] = nil
				built += cc.slice([]int{c})
				break
			}
			s.Set(row, x)
			built += int64(s.Width()+7) / 8
		}
	}
	return built
}

// setCurrent records whether row holds a current version.
func (cc *colCache) setCurrent(row int, current bool) {
	w := &cc.current[row>>6]
	*w = *w&^(1<<(row&63)) | expr.Bit(current)<<(row&63)
}

// extend makes the cache cover slots rows, gives every column about to
// have a NULL bit flipped — by a value, or by a freed row's bit going — a
// copy of its null bitmap (a first one when it has none) and widens the
// range of every INT column about to receive a value outside it. Any of
// these publishes fresh Vec headers: scans still materializing from the
// old ones must never see a header change under them, nor a word of their
// bitmap change — the rows the entries write are rows no such scan
// selects, but a bitmap word holds 64 rows — so the old range and bitmap
// still hold for what they read. The new rows start out free; the entries
// that made the store grow fill them in; row k of rows is bound for cache
// row cc.at[k]. It returns, per column, whether it copied its bitmap.
func (cc *colCache) extend(slots int, dirty []storage.DirtySlot, rows *value.Batch) []bool {
	flip := make([]bool, len(cc.cols)) // per column, a NULL bit to flip
	var lo, hi []int64                 // per column, the widened range, allocated on the first hit
	for c, vec := range cc.cols {
		src := rows.Cols[c]
		for k, row := range cc.at {
			null := src.IsNull(k)
			flip[c] = flip[c] || null != (row < cc.rows && vec.IsNull(row))
			// Value by value: the transposition's own range reads [0, 0]
			// over a column that got only NULLs.
			if !vec.Ranged || null || src.I[k] >= vec.Lo && src.I[k] <= vec.Hi {
				continue
			}
			if lo == nil {
				lo, hi = make([]int64, len(cc.cols)), make([]int64, len(cc.cols))
				for c, vec := range cc.cols {
					lo[c], hi[c] = vec.Lo, vec.Hi
				}
			}
			lo[c], hi[c] = min(lo[c], src.I[k]), max(hi[c], src.I[k])
		}
		// A freed row's NULL bits go.
		for _, d := range dirty {
			flip[c] = flip[c] || d.Off < 0 && d.Slot < cc.rows && vec.IsNull(d.Slot)
		}
	}
	if slots <= cc.rows && !slices.Contains(flip, true) && lo == nil {
		return flip
	}
	slots = max(slots, cc.rows)
	added := int64(slots - cc.rows)
	cols, vecs := make([]*value.Vec, len(cc.cols)), make([]value.Vec, len(cc.cols))
	for c, old := range cc.cols {
		vec := &vecs[c]
		vec.Kind, vec.Lo, vec.Hi, vec.Ranged = old.Kind, old.Lo, old.Hi, old.Ranged
		if lo != nil {
			vec.Lo, vec.Hi = lo[c], hi[c]
		}
		width := int64(8) // bytes a row takes in this column, as vecBytes counts
		switch old.Kind {
		case value.KindString:
			vec.S, width = grown(old.S, slots), 16
		case value.KindFloat:
			vec.F = grown(old.F, slots)
		default:
			vec.I = grown(old.I, slots)
		}
		cc.bytes += added * width
		if null := old.Null; null != nil || flip[c] {
			if flip[c] {
				null = append([]uint64(nil), null...)
			}
			vec.Null = grown(null, expr.MaskWords(slots))
			cc.bytes += 8 * int64(len(vec.Null)-len(old.Null))
		}
		cols[c] = vec
	}
	cc.cols = cols
	cc.begin = grown(cc.begin, slots)
	cc.end = grown(cc.end, slots)
	for i := cc.rows; i < slots; i++ {
		cc.begin[i], cc.end[i] = freeStamp, freeStamp
	}
	words := expr.MaskWords(slots)
	cc.bytes += added*stampBytes + 8*int64(words-len(cc.current))
	cc.current = grown(cc.current, words) // the new rows' bits are clear: free
	cc.rows = slots
	for _, s := range cc.slices {
		if s != nil {
			cc.bytes += s.Grow(words)
		}
	}
	return flip
}

// grown returns s with length n: resliced when the backing array has the
// room (holders of the old, shorter header never look past its length),
// copied into a larger array otherwise. The headroom keeps reallocation
// rare while a fragment grows, and small (1/64) because a fragment that
// only updates stops growing once Vacuum's free slots come back.
func grown[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	out := make([]T, n, n+n/64+64)
	copy(out, s)
	return out
}

// vecCacheSize bounds the compiled filters a fragment keeps: its key is
// the predicate text, bound constants included, so ad-hoc predicates would
// otherwise pile up without end.
const vecCacheSize = 256

// compileVecFilter returns the cached vectorized filter for e, charging
// the one-time compilation cost on a miss. It compiles under vecMu, so
// scans that miss on one predicate together compile and charge it once.
func (o *OFM) compileVecFilter(e expr.Expr) (*expr.VecFilter, error) {
	key := e.String()
	o.vecMu.Lock()
	defer o.vecMu.Unlock()
	if f, ok := o.vecCache.Get(key); ok {
		return f, nil
	}
	f, err := expr.CompileVecFilter(expr.Clone(e), o.cfg.Schema)
	if err != nil {
		return nil, err
	}
	o.cfg.PE.Advance(o.costs().CompileCost())
	o.vecCache.Put(key, f)
	return f, nil
}

// ScanBatch is the fragment's scan: it evaluates an optional predicate
// over the view and returns the matching rows as a batch, projected to
// cols (nil = all). It is ScanMask with the rows selected.
func (o *OFM) ScanBatch(view View, pred expr.Expr, cols []int) (batch *value.Batch, built int64, err error) {
	batch, mask, built, err := o.ScanMask(view, pred)
	if err != nil {
		return nil, built, err
	}
	if mask != nil {
		batch.Sel = expr.MaskRows(mask)
	}
	return o.projected(batch, cols), built, nil
}

// ScanMask is the fragment's scan: it evaluates an optional predicate over
// the view and returns the matching rows as a batch and a mask of its
// rows, a bit per row and 64 rows a word (nil: the batch's own rows, all
// of them when it is dense), pooled for the caller to put back (or turn
// into a selection, expr.MaskRows). Only the versions visible at view.TS
// are read, so it takes no locks; virtual CPU time is charged per row
// examined.
//
// An equality on a hash-indexed column (eqIndexProbe) is answered from the
// index (probeBatch, Probe's): the probed versions, decoded from the
// store's slab, and the view transaction's pending inserts that match make
// a small batch of their own, and no column cache is built. Every other
// scan filters the fragment column cache under the view's visibility mask,
// no tuples materialized; when the view's transaction has pending writes
// here, the rows it deleted leave the mask and its inserts, filtered
// alike, follow the cache rows in one dense copy of both. built reports
// the bytes this call wrote into the cache: the whole image when it had to
// be built, the rows a committed write changed when it had to catch up, 0
// on a hit. When the OFM has a GC horizon the caller must keep view.TS
// pinned until it has finished with the batch (see the file comment).
func (o *OFM) ScanMask(view View, pred expr.Expr) (batch *value.Batch, mask []uint64, built int64, err error) {
	del, ins := o.overlay(view)
	if pred != nil {
		if hash, key, rest := o.eqIndexProbe(pred); hash != nil {
			batch, err = o.probeBatch(view, del, ins, hash, key, rest, pred)
			return batch, nil, 0, err
		}
	}
	batch, mask, pending, built, err := o.scanCache(view, del, ins, pred)
	if err != nil {
		return nil, nil, built, err
	}
	o.ccMu.RUnlock()
	if pending != nil {
		if mask != nil {
			batch.Sel = expr.MaskRows(mask)
		}
		batch, mask = value.ConcatBatches(o.cfg.Schema, []*value.Batch{batch, pending}, nil), nil
	}
	return batch, mask, built, nil
}

// scanCache is the scan of every question no index answers, for reads and
// writes alike: pred (nil = all) over the column cache rows visible in the
// view less the pending deletes del, and over the pending inserts ins. It
// returns the cache's batch and the mask of its rows that pass (nil: all)
// — a row's index is its store slot — and, when ins is not empty, the
// inserts as a batch selecting those that pass. On a nil error o.ccMu is
// read-locked, so the cache and the slots keep meaning the same versions
// until the caller unlocks it. built reports the bytes the cache build or
// catch-up wrote. The kernel's work is charged: every visible version
// examined, the inserts included.
func (o *OFM) scanCache(view View, del map[storage.RowID]struct{}, ins []value.Tuple, pred expr.Expr) (batch *value.Batch, mask []uint64, pending *value.Batch, built int64, err error) {
	var f *expr.VecFilter
	if pred != nil {
		if f, err = o.compileVecFilter(pred); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("ofm %s: %w", o.cfg.Name, err)
		}
	}
	if len(ins) > 0 {
		if pending, err = o.filterTuples(ins, pred); err != nil {
			return nil, nil, nil, 0, err
		}
	}
	var slice []int
	if f != nil {
		slice = f.SliceCols()
	}
	cc, built := o.columnCache(slice)
	batch, mask, visible, err := cc.scan(o.cfg.Schema, view.TS, del, f)
	if err != nil {
		o.ccMu.RUnlock()
		return nil, nil, nil, built, fmt.Errorf("ofm %s: %w", o.cfg.Name, err)
	}
	visible += len(ins)
	cost := o.costs()
	if pred == nil {
		o.cfg.PE.Advance(cost.BuildCost(visible))
	} else {
		o.cfg.PE.Advance(cost.ScanCost(visible, true))
	}
	return batch, mask, pending, built, nil
}

// projected narrows b to cols (nil = all), charging the rows it hands on.
func (o *OFM) projected(b *value.Batch, cols []int) *value.Batch {
	if cols == nil {
		return b
	}
	b = b.Project(cols, o.cfg.Schema.Project(cols))
	o.cfg.PE.Advance(o.costs().BuildCost(b.Len()))
	return b
}

// scan selects the rows visible at ts, less the versions del holds, that
// satisfy f (nil = all of them) and reports how many rows were visible. The
// rows selected are a pooled mask over the cache rows, nil when every row
// is (the batch is then dense). Caller holds OFM.ccMu shared.
func (cc *colCache) scan(schema *value.Schema, ts uint64, del map[storage.RowID]struct{}, f *expr.VecFilter) (batch *value.Batch, mask []uint64, visible int, err error) {
	batch = &value.Batch{Schema: schema, Cols: cc.cols, Rows: cc.rows}
	vis := cc.current // at or past every stamp, the current rows are the visible ones
	own := ts < cc.maxStamp || len(del) > 0
	if own {
		vis = value.GetHashes(len(cc.current))
		if ts < cc.maxStamp {
			cc.visibleAt(ts, vis)
		} else {
			copy(vis, cc.current)
		}
		// A row id's slot is its cache row, and the version there is the
		// one deleted: it stays current, so no vacuum frees its slot, while
		// the transaction holds the fragment's write lock.
		for id := range del {
			vis[id.Slot()>>6] &^= 1 << (id.Slot() & 63)
		}
	}
	visible = expr.MaskCount(vis)
	switch {
	case f != nil:
		mask = value.GetHashes(len(vis))
		// The sidecars ride on the batch only while ccMu is held.
		batch.Slices = cc.slices
		err = f.FilterMask(batch, vis, mask)
		batch.Slices = nil
	case visible < cc.rows && own:
		mask, own = vis, false // the caller takes the visibility mask over
	case visible < cc.rows:
		mask = append(value.GetHashes(0), vis...)
	}
	if own {
		value.PutHashes(vis)
	}
	if err != nil {
		value.PutHashes(mask)
		return nil, nil, 0, err
	}
	return batch, mask, visible, nil
}

// visibleAt writes to m the mask of the rows visible at ts: begin <= ts <
// end, where end-1 wraps a current version's 0 past every ts and a free
// slot's stamps hold for none.
func (cc *colCache) visibleAt(ts uint64, m []uint64) {
	for w := range m {
		lo, hi := w<<6, min(w<<6+64, cc.rows)
		begin, end := cc.begin[lo:hi], cc.end[lo:hi]
		var word uint64
		for j, b := range begin {
			word |= (expr.Bit(b <= ts) & expr.Bit(end[j]-1 >= ts)) << (j & 63)
		}
		m[w] = word
	}
}
