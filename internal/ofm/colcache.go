package ofm

import (
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// The fragment column cache: a columnar image of the fragment's store,
// addressed by slot — cached row i is store slot i, whatever it holds: a
// current version, a dead one kept for older snapshots, or nothing (a
// free slot is a row no snapshot can see). Each row carries its MVCC
// begin/end stamps, so one cache serves every snapshot: a scan at
// timestamp TS derives its visibility from the stamps and returns a
// selection vector over the cached columns.
//
// The cache is built once, by transposing the store, and from then on
// follows it. The store logs the slots its mutators touch
// (storage/dirty.go); the first batch scan after a committed write drains
// that log and folds the logged slots' current tuples and stamps into the
// vectors — work proportional to the rows changed, not to the fragment.
// A version inserted into a reused slot overwrites the cached row in
// place, one appended to the store appends to the vectors. Only a lost
// log (overflow, Clear, the non-MVCC Delete/Update) transposes again.
//
// Concurrency. Scans hold no store lock and keep reading the vectors
// after ScanBatch returns, while they materialize. Two rules make
// patching under them safe:
//
//   - ccMu orders everything done inside ScanBatch: stamp reads and the
//     filter kernel (which may read every row, visible or not) run under
//     its read lock, the catch-up under its write lock.
//   - What a scan keeps afterwards is a value.Batch: the Vec headers of
//     its generation plus a selection of rows visible at its snapshot.
//     Headers are never written once published — growth, and the first
//     NULL of a column, publish fresh headers (over the same backing
//     arrays when capacity allows) — and a payload write only ever lands
//     on a row no pinned snapshot can see: the store reuses a slot only
//     after Vacuum freed it at the GC horizon, and a DeleteVersion moves
//     stamps, not values. So the caller of ScanBatch must hold its
//     snapshot pinned until it is done with the batch, as every read of
//     the engine does. A standalone OFM (no Horizon) vacuums eagerly with
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
	// current counts the rows with end == 0 and maxStamp bounds every
	// stamp folded in, so a snapshot at or past maxStamp sees exactly the
	// current rows — the scan knows how many without looking at them.
	current  int
	maxStamp uint64
	bytes    int64 // accounted against the PE budget
}

// CacheStats counts what the column cache has done.
type CacheStats struct {
	FullBuilds    uint64 // whole-fragment transpositions
	CatchUps      uint64 // dirty-log drains folded into the cache
	RowsFolded    uint64 // log entries those drains applied
	ResidentBytes int64  // current footprint charged to the PE
}

// Add accumulates b into s (the engine sums a table's fragments).
func (s *CacheStats) Add(b CacheStats) {
	s.FullBuilds += b.FullBuilds
	s.CatchUps += b.CatchUps
	s.RowsFolded += b.RowsFolded
	s.ResidentBytes += b.ResidentBytes
}

// CacheStats returns the fragment's column-cache counters.
func (o *OFM) CacheStats() CacheStats {
	o.ccMu.RLock()
	defer o.ccMu.RUnlock()
	st := o.ccStats
	if o.cc != nil {
		st.ResidentBytes = o.cc.bytes
	}
	return st
}

// columnCache returns the cache, level with the store, plus the bytes
// this call wrote into it to get there (0 on a hit) so the executor can
// charge them to the statement's tenant budget. On a nil error o.ccMu is
// read-locked and the caller must unlock it when it has finished with the
// stamps and the filter kernel.
func (o *OFM) columnCache() (*colCache, int64, error) {
	o.ccMu.RLock()
	if o.cc != nil && o.cc.version == o.store.Version() {
		return o.cc, 0, nil
	}
	o.ccMu.RUnlock()

	o.ccMu.Lock()
	built, err := o.syncCache()
	o.ccMu.Unlock()
	if err != nil {
		return nil, 0, err
	}

	// Another scan may catch the cache up further before the read lock is
	// back; any later state serves this snapshot just as well.
	o.ccMu.RLock()
	return o.cc, built, nil
}

// syncCache brings the cache level with the store — by catch-up when the
// store's dirty-slot log can say what changed, by transposing the whole
// store otherwise — and returns the bytes written. Caller holds o.ccMu
// exclusively.
func (o *OFM) syncCache() (int64, error) {
	cost := o.costs()
	if cc := o.cc; cc != nil {
		if cc.version == o.store.Version() {
			return 0, nil // a concurrent scan got here first
		}
		dirty, slots, version, ok := o.store.DrainDirty(o.ccDirty[:0])
		var built int64
		if ok {
			charged := cc.bytes
			if built, ok = cc.fold(dirty, slots); ok {
				cc.version = version
				o.chargeMem(cc.bytes - charged)
				o.cfg.PE.Advance(cost.BuildCost(len(dirty)))
				o.ccStats.CatchUps++
				o.ccStats.RowsFolded += uint64(len(dirty))
			} else {
				cc.bytes = charged // what the rebuild below must release
			}
		}
		clear(dirty) // drop the tuple references, keep the buffer
		o.ccDirty = dirty[:0]
		if ok {
			return built, nil
		}
	}

	// First build, or the log was lost: transpose the store. Only an OFM
	// with a GC horizon asks the store to log from here on.
	tuples, begin, end, version := o.store.SnapshotSlots(o.cfg.Horizon != nil)
	if o.cc != nil {
		o.chargeMem(-o.cc.bytes)
		o.cc = nil
	}
	batch := value.NewBatchFrom(o.cfg.Schema, tuples)
	if batch == nil {
		// The store type-checks every version it takes (storage.Conform:
		// a value of the column's kind, an int widened into a float
		// column, or NULL), so every column has one kind.
		o.store.Untrack()
		return 0, fmt.Errorf("ofm %s: stored versions do not fit the column kinds of %s", o.cfg.Name, o.cfg.Schema)
	}
	cc := &colCache{version: version, rows: len(tuples), begin: begin, end: end, cols: batch.Cols}
	held := 0
	for i, t := range tuples {
		if t == nil {
			begin[i], end[i] = freeStamp, freeStamp
			continue
		}
		held++
		if end[i] == 0 {
			cc.current++
		}
		cc.maxStamp = max(cc.maxStamp, begin[i], end[i])
	}
	for _, vec := range cc.cols {
		cc.bytes += vecBytes(vec)
	}
	cc.bytes += int64(cc.rows) * stampBytes
	if o.cfg.Horizon != nil {
		cc.bytes += storage.DirtyLogBytes
	}
	o.chargeMem(cc.bytes)
	// The transposition reads every version once.
	o.cfg.PE.Advance(cost.BuildCost(held))
	o.ccStats.FullBuilds++
	o.cc = cc
	return cc.bytes, nil
}

// chargeMem moves the cache's share of the PE memory budget by delta.
func (o *OFM) chargeMem(delta int64) {
	if delta > 0 {
		_ = o.cfg.PE.Alloc(delta) // best effort, like the store's own hook
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
	if v.Null != nil {
		n += int64(len(v.Null))
	}
	return n
}

// fold applies drained log entries to the cache, extending it to slots
// rows first, and returns the bytes written. ok is false when a tuple
// does not fit the cached vectors' kinds: the cache is then half patched
// and the caller must rebuild it.
func (cc *colCache) fold(dirty []storage.DirtySlot, slots int) (built int64, ok bool) {
	cc.extend(slots, dirty)
	for i := range dirty {
		d := &dirty[i]
		row := d.Slot
		if cc.end[row] == 0 {
			cc.current--
		}
		built += stampBytes
		if d.Tuple == nil {
			// Freed: drop the strings it pinned; numbers may stay, nobody
			// can select the row.
			cc.begin[row], cc.end[row] = freeStamp, freeStamp
			for _, vec := range cc.cols {
				if vec.Kind == value.KindString {
					cc.bytes -= int64(len(vec.S[row]))
					vec.S[row] = ""
				}
			}
			continue
		}
		if !d.StampsOnly {
			for c, vec := range cc.cols {
				if vec.Kind == value.KindString {
					cc.bytes -= int64(len(vec.S[row]))
				}
				if !vec.Set(row, d.Tuple[c]) {
					return 0, false
				}
				built += 8
				if vec.Kind == value.KindString {
					built += 8 + int64(len(vec.S[row]))
					cc.bytes += int64(len(vec.S[row]))
				}
			}
		}
		cc.begin[row], cc.end[row] = d.Begin, d.End
		if d.End == 0 {
			cc.current++
		}
		cc.maxStamp = max(cc.maxStamp, d.Begin, d.End)
	}
	return built, true
}

// extend makes the cache cover slots rows and gives every column about to
// receive its first NULL a null bitmap. Either need publishes fresh Vec
// headers: scans still materializing from the old ones must never see a
// header change under them. The new rows start out free; the entries that
// made the store grow fill them in.
func (cc *colCache) extend(slots int, dirty []storage.DirtySlot) {
	var wantNull []bool // per column, allocated on the first hit
	for i := range dirty {
		if dirty[i].StampsOnly {
			continue
		}
		for c, v := range dirty[i].Tuple {
			if v.IsNull() && cc.cols[c].Null == nil {
				if wantNull == nil {
					wantNull = make([]bool, len(cc.cols))
				}
				wantNull[c] = true
			}
		}
	}
	if slots <= cc.rows && wantNull == nil {
		return
	}
	slots = max(slots, cc.rows)
	added := int64(slots - cc.rows)
	cols := make([]*value.Vec, len(cc.cols))
	for c, old := range cc.cols {
		vec := &value.Vec{Kind: old.Kind}
		width := int64(8) // bytes a row takes in this column, as vecBytes counts
		switch old.Kind {
		case value.KindString:
			vec.S, width = grown(old.S, slots), 16
		case value.KindFloat:
			vec.F = grown(old.F, slots)
		default:
			vec.I = grown(old.I, slots)
		}
		if old.Null != nil || wantNull != nil && wantNull[c] {
			if old.Null == nil {
				cc.bytes += int64(cc.rows) // the rows already there gain a bitmap byte
			}
			vec.Null = grown(old.Null, slots)
			width++
		}
		cc.bytes += added * width
		cols[c] = vec
	}
	cc.cols = cols
	cc.begin = grown(cc.begin, slots)
	cc.end = grown(cc.end, slots)
	for i := cc.rows; i < slots; i++ {
		cc.begin[i], cc.end[i] = freeStamp, freeStamp
	}
	cc.bytes += added * stampBytes
	cc.rows = slots
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

// compileVecFilter returns the cached vectorized filter for e, mirroring
// compilePred's cache-and-charge discipline.
func (o *OFM) compileVecFilter(e expr.Expr) (*expr.VecFilter, error) {
	key := e.String()
	o.vecMu.Lock()
	if f, ok := o.vecCache[key]; ok {
		o.vecMu.Unlock()
		return f, nil
	}
	o.vecMu.Unlock()
	f, err := expr.CompileVecFilter(expr.Clone(e), o.cfg.Schema)
	if err != nil {
		return nil, err
	}
	o.cfg.PE.Advance(o.costs().CompileCost())
	o.vecMu.Lock()
	o.vecCache[key] = f
	o.vecMu.Unlock()
	return f, nil
}

// ScanBatch is the fragment's scan: it evaluates an optional predicate
// over the view and returns the matching rows as a batch, projected to
// cols (nil = all). Only the versions visible at view.TS are read, so it
// takes no locks; virtual CPU time is charged per row examined.
//
// An equality on a hash-indexed column (eqIndexProbe) is answered from the
// index: the probed versions, and the view transaction's pending inserts
// that match, are transposed into a small batch of their own, and no
// column cache is built. Every other scan is a selection vector over the
// fragment column cache, no tuples materialized; when the view's
// transaction has pending writes here, the rows it deleted leave the
// selection and its inserts, filtered alike, follow the cache rows in one
// dense copy of both. built reports the bytes this call wrote into the
// cache: the whole image when it had to be built, the rows a committed
// write changed when it had to catch up, 0 on a hit. When the OFM has a GC
// horizon the caller must keep view.TS pinned until it has finished with
// the batch (see the file comment).
func (o *OFM) ScanBatch(view View, pred expr.Expr, cols []int) (batch *value.Batch, built int64, err error) {
	del, ins := o.overlay(view)
	if pred != nil {
		if hash, key, rest := o.eqIndexProbe(pred); hash != nil {
			rows, err := o.probeRows(view, del, ins, hash, key, rest, pred)
			if err != nil {
				return nil, 0, err
			}
			if batch = value.NewBatchFrom(o.cfg.Schema, rows); batch == nil {
				return nil, 0, fmt.Errorf("ofm %s: probed versions do not fit the column kinds of %s", o.cfg.Name, o.cfg.Schema)
			}
			return o.projected(batch, cols), 0, nil
		}
	}
	var f *expr.VecFilter
	if pred != nil {
		if f, err = o.compileVecFilter(pred); err != nil {
			return nil, 0, fmt.Errorf("ofm %s: %w", o.cfg.Name, err)
		}
	}
	cc, built, err := o.columnCache()
	if err != nil {
		return nil, 0, err
	}
	batch, visible, err := cc.scan(o.cfg.Schema, view.TS, deletedSlots(del), f)
	o.ccMu.RUnlock()
	if err == nil && len(ins) > 0 {
		batch, err = withInserts(batch, ins, f)
		visible += len(ins)
	}
	if err != nil {
		return nil, built, fmt.Errorf("ofm %s: %w", o.cfg.Name, err)
	}
	cost := o.costs()
	if pred == nil {
		o.cfg.PE.Advance(cost.BuildCost(visible))
	} else {
		// The kernel examined every visible version, the inserts included.
		o.cfg.PE.Advance(cost.ScanCost(visible, true))
	}
	return o.projected(batch, cols), built, nil
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

// deletedSlots lists, ascending, the cache rows of the versions a view's
// transaction deleted: a row id's slot is its cache row, and the version
// there is the one deleted — it stays current, so no vacuum frees its
// slot, while the transaction holds the fragment's write lock.
func deletedSlots(del map[storage.RowID]struct{}) []int32 {
	if len(del) == 0 {
		return nil
	}
	slots := make([]int32, 0, len(del))
	for id := range del {
		slots = append(slots, int32(id.Slot()))
	}
	slices.Sort(slots)
	return slices.Compact(slots)
}

// withInserts follows the rows of batch with the pending inserts ins that
// f (nil = all) accepts, in a dense copy of both.
func withInserts(batch *value.Batch, ins []value.Tuple, f *expr.VecFilter) (*value.Batch, error) {
	delta := value.NewBatchFrom(batch.Schema, ins)
	if delta == nil {
		return nil, fmt.Errorf("pending inserts do not fit the column kinds of %s", batch.Schema)
	}
	if f != nil {
		var err error
		if delta, _, err = algebra.SelectBatch(delta, f); err != nil {
			return nil, err
		}
	}
	return value.ConcatBatches(batch.Schema, []*value.Batch{batch, delta}, nil), nil
}

// scan selects the rows visible at ts, less the ascending rows skip, that
// satisfy f (nil = all of them) and reports how many rows were visible.
// Caller holds OFM.ccMu shared.
func (cc *colCache) scan(schema *value.Schema, ts uint64, skip []int32, f *expr.VecFilter) (batch *value.Batch, visible int, err error) {
	batch = &value.Batch{Schema: schema, Cols: cc.cols, Rows: cc.rows}
	// At or past every stamp in the cache, a row is visible exactly when
	// it is a current version, and the counter says how many are.
	settled := ts >= cc.maxStamp && len(skip) == 0
	switch {
	case settled && cc.current == cc.rows:
		// Every row visible: dense, no selection vector.
		visible = cc.rows
	case settled && f != nil && f.Total():
		// Most rows are visible, so listing them costs more than the
		// filter itself. A total filter cannot raise on a dead or free
		// row's stale values: run it dense and check the survivors.
		out, _, err := algebra.SelectBatch(batch, f)
		if err != nil {
			return nil, 0, err
		}
		kept := out.Sel[:0]
		for _, row := range out.Sel {
			if cc.end[row] == 0 {
				kept = append(kept, row)
			}
		}
		out.Sel = kept
		return out, cc.current, nil
	default:
		sel := value.GetSel()
		for i := 0; i < cc.rows; i++ {
			if len(skip) > 0 && skip[0] == int32(i) {
				skip = skip[1:]
				continue
			}
			if cc.begin[i] <= ts && (cc.end[i] == 0 || cc.end[i] > ts) {
				sel = append(sel, int32(i))
			}
		}
		visible = len(sel)
		if visible == cc.rows {
			value.PutSel(sel)
		} else {
			batch.Sel = sel
		}
	}
	if f != nil {
		batch, _, err = algebra.SelectBatch(batch, f)
	}
	return batch, visible, err
}
