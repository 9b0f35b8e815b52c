package ofm

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// Fault points at the participant's three protocol entry points.
var (
	fpOFMPrepare = fault.Register("ofm.prepare.pre")
	fpOFMCommit  = fault.Register("ofm.commit.pre")
	fpOFMAbort   = fault.Register("ofm.abort.pre")
)

// Transactional updates use deferred write sets: mutations buffer in the
// OFM until two-phase commit applies them. Reads see committed state
// only. This file also implements txn.Participant and crash recovery.

func (o *OFM) ws(tx txn.ID) *writeSet {
	w := o.pending[tx]
	if w == nil {
		w = &writeSet{}
		o.pending[tx] = w
	}
	return w
}

// InsertTx buffers inserts for tx. The caller must already hold the
// fragment lock through the transaction layer.
func (o *OFM) InsertTx(tx txn.ID, tuples ...value.Tuple) error {
	// Validate eagerly so errors surface at insert, not commit.
	for _, t := range tuples {
		if err := storage.Conform(o.cfg.Schema, t); err != nil {
			return fmt.Errorf("ofm %s: %w", o.cfg.Name, err)
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	w := o.ws(tx)
	if w.prepared {
		return fmt.Errorf("ofm %s: txn %d already prepared", o.cfg.Name, tx)
	}
	w.inserts = append(w.inserts, tuples...)
	o.cfg.PE.Advance(o.costs().BuildCost(len(tuples)))
	return nil
}

// DeleteTx buffers the deletion of every tuple matching pred (nil = all)
// in the given view and returns how many will be deleted. The view's
// transaction overlay applies: the txn's own pending inserts are
// un-buffered when they match, and rows it already deleted are skipped.
// When the view is a pinned snapshot, first-committer-wins validation
// runs: matching a version that a later committer already superseded
// returns txn.ErrConflict and the caller must abort and retry.
func (o *OFM) DeleteTx(tx txn.ID, pred expr.Expr, view View) (int, error) {
	view.Tx = tx
	matching, pendIdx, err := o.match(view, pred)
	if err != nil {
		return 0, err
	}
	if pendIdx != nil {
		defer value.PutSel(pendIdx)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	w := o.ws(tx)
	if w.prepared {
		return 0, fmt.Errorf("ofm %s: txn %d already prepared", o.cfg.Name, tx)
	}
	count := 0
	for _, id := range matching {
		t, ok := o.store.GetAt(nil, id, view.TS)
		if !ok {
			continue
		}
		if err := o.checkConflict(view, id); err != nil {
			return 0, err
		}
		w.deletes = append(w.deletes, id)
		w.delTuple = append(w.delTuple, t)
		count++
	}
	count += w.dropInserts(pendIdx)
	return count, nil
}

// UpdateTx buffers an update in the given view: matching committed
// tuples are deleted and their transformed images inserted; the txn's
// own matching pending inserts are rewritten in place. set maps column
// index to an expression bound to the fragment's schema, evaluated
// against the old tuple. Snapshot views get first-committer-wins
// validation as in DeleteTx.
func (o *OFM) UpdateTx(tx txn.ID, pred expr.Expr, set map[int]expr.Expr, view View) (int, error) {
	view.Tx = tx
	matching, pendIdx, err := o.match(view, pred)
	if err != nil {
		return 0, err
	}
	if pendIdx != nil {
		defer value.PutSel(pendIdx)
	}
	for col := range set {
		if col < 0 || col >= o.cfg.Schema.Len() {
			return 0, fmt.Errorf("ofm %s: update column %d out of range", o.cfg.Name, col)
		}
	}
	// applySet writes old's transformed image over a copy of old in
	// updated's backing array.
	applySet := func(old, updated value.Tuple) (value.Tuple, error) {
		updated = append(updated[:0], old...)
		for col, e := range set {
			v, err := e.Eval(old)
			if err != nil {
				return nil, fmt.Errorf("ofm %s: update: %w", o.cfg.Name, err)
			}
			updated[col] = v
		}
		// Type-check the new image now, as InsertTx does: a commit that
		// found it wrong would already have applied the delete.
		if err := storage.Conform(o.cfg.Schema, updated); err != nil {
			return nil, fmt.Errorf("ofm %s: update: %w", o.cfg.Name, err)
		}
		return updated, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	w := o.ws(tx)
	if w.prepared {
		return 0, fmt.Errorf("ofm %s: txn %d already prepared", o.cfg.Name, tx)
	}
	count := 0
	// Rewrite the txn's own matching buffered inserts first: pendIdx
	// indexes the pre-update insert list.
	for _, i := range pendIdx {
		updated, err := applySet(w.inserts[i], nil)
		if err != nil {
			return count, err
		}
		w.inserts[i] = updated
		count++
	}
	arity := o.cfg.Schema.Len()
	for _, id := range matching {
		// One array holds both images: the old one, then the new.
		both, ok := o.store.GetAt(make(value.Tuple, 0, 2*arity), id, view.TS)
		if !ok {
			continue
		}
		if err := o.checkConflict(view, id); err != nil {
			return count, err
		}
		old := both[:arity:arity]
		updated, err := applySet(old, both[arity:])
		if err != nil {
			return count, err
		}
		w.deletes = append(w.deletes, id)
		w.delTuple = append(w.delTuple, old)
		w.inserts = append(w.inserts, updated)
		count++
	}
	o.cfg.PE.Advance(o.costs().BuildCost(count))
	return count, nil
}

// checkConflict implements first-committer-wins: a snapshot-view writer
// that matched a version another transaction has since deleted (or
// replaced — updates are delete+insert) must abort. The fragment X-lock
// serializes writers, so by the time this transaction got the lock any
// competing writer has fully committed; a nonzero end timestamp on the
// matched version is exactly a write-write conflict.
func (o *OFM) checkConflict(view View, id storage.RowID) error {
	if !view.isSnapshot() {
		return nil
	}
	if _, end, ok := o.store.VersionTS(id); ok && end != 0 {
		return fmt.Errorf("ofm %s: row version superseded since snapshot %d: %w",
			o.cfg.Name, view.TS, txn.ErrConflict)
	}
	return nil
}

// dropInserts removes the buffered inserts at the given (ascending,
// pre-computed) indexes. Caller holds o.mu.
func (w *writeSet) dropInserts(idxs []int32) int {
	if len(idxs) == 0 {
		return 0
	}
	kept, next := w.inserts[:0], 0
	for i, t := range w.inserts {
		if next < len(idxs) && int(idxs[next]) == i {
			next++
			continue
		}
		kept = append(kept, t)
	}
	w.inserts = kept
	return len(idxs)
}

// match finds the rows pred (nil = all) selects in the view the way a
// read does: the row ids of the committed versions, less those the view's
// transaction deleted, in the order a scan meets them, and the positions
// of the transaction's pending inserts (read-your-own-writes for DML). An
// equality on a hash-indexed column probes the index — the point
// UPDATE/DELETE path, the same probe a point SELECT takes, building no
// column image and charging the lookup and the versions under the key.
// Every other predicate is the fragment scan's filter over the column
// cache, charged as a read with the same predicate is.
func (o *OFM) match(view View, pred expr.Expr) (ids []storage.RowID, pend []int32, err error) {
	del, ins := o.overlay(view)
	if pred != nil {
		if hash, key, rest := o.eqIndexProbe(pred); hash != nil {
			var at [2]int // a key's versions, most often one
			ids, slab, offs, held := o.probe(view, del, hash, key, at[:0])
			if rest != nil {
				sel, err := o.accepts(value.NewBatchFromRows(o.cfg.Schema, slab, offs), rest)
				if err != nil {
					return nil, nil, err
				}
				ids = pick(ids, sel)
			}
			o.cfg.PE.Advance(o.costs().ScanCost(held, true))
			if len(ins) > 0 {
				var pending *value.Batch
				if pending, err = o.filterTuples(ins, pred); err == nil {
					pend = pending.Sel
				}
			}
			return ids, pend, err
		}
	}
	batch, mask, pending, _, err := o.scanCache(view, del, ins, pred)
	if err != nil {
		return nil, nil, err
	}
	if mask != nil {
		batch.Sel = expr.MaskRows(mask)
	}
	sel := batch.TakeSel()
	ids = o.store.SlotIDs(nil, sel)
	o.ccMu.RUnlock()
	value.PutSel(sel)
	if pending != nil {
		pend = pending.Sel
	}
	return ids, pend, nil
}

// PendingFor reports the buffered write counts for tx (tests, tooling).
func (o *OFM) PendingFor(tx txn.ID) (inserts, deletes int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	w := o.pending[tx]
	if w == nil {
		return 0, 0
	}
	return len(w.inserts), len(w.deletes)
}

// ---------- txn.Participant ----------

// Prepare implements txn.Participant: the write set is forced to the
// redo log with a prepare marker. Transient OFMs vote yes with no I/O.
func (o *OFM) Prepare(tx txn.ID) error {
	if out := fpOFMPrepare.Eval(); out != nil {
		return fmt.Errorf("ofm %s: prepare: %w", o.cfg.Name, out.Err)
	}
	// Shared checkpoint latch across marking prepared AND forcing the
	// records: a checkpoint slipping between the two would carry the
	// write set forward and then see this append land on the fresh log —
	// the same redo replayed twice.
	o.ckptMu.RLock()
	defer o.ckptMu.RUnlock()
	o.mu.Lock()
	w := o.pending[tx]
	if w == nil {
		w = &writeSet{}
		o.pending[tx] = w
	}
	if w.prepared {
		o.mu.Unlock()
		return nil
	}
	w.prepared = true
	inserts := append([]value.Tuple(nil), w.inserts...)
	delTuples := append([]value.Tuple(nil), w.delTuple...)
	o.mu.Unlock()

	if o.cfg.Kind == Transient {
		return nil
	}
	// Redo records in apply order (deletes, then inserts), sealed by the
	// prepare marker, forced in one write.
	recs := make([]wal.Record, 0, len(inserts)+len(delTuples)+1)
	for _, t := range delTuples {
		recs = append(recs, wal.Record{Type: wal.RecDelete, Txn: tx, Tuple: t})
	}
	for _, t := range inserts {
		recs = append(recs, wal.Record{Type: wal.RecInsert, Txn: tx, Tuple: t})
	}
	recs = append(recs, wal.Record{Type: wal.RecPrepare, Txn: tx})
	o.chargeRemoteLog(len(recs))
	if err := o.cfg.Log.Append(recs...); err != nil {
		return fmt.Errorf("ofm %s: prepare: %w", o.cfg.Name, err)
	}
	return nil
}

// chargeRemoteLog charges the message cost of shipping log records from
// the OFM's PE to its (nearest) disk PE, where the allocator placed the
// stable store.
func (o *OFM) chargeRemoteLog(nRecords int) {
	if o.cfg.Machine == nil || o.cfg.Log == nil {
		return
	}
	bytes := nRecords * 64 // approximate record wire size
	diskPE := o.cfg.Machine.NearestDiskPE(o.cfg.PE.ID())
	if diskPE >= 0 && diskPE != o.cfg.PE.ID() {
		o.cfg.Machine.Send(o.cfg.PE.ID(), diskPE, bytes)
	}
}

// Commit implements txn.Participant: the commit marker (carrying the
// commit timestamp) is forced, then the write set is applied to the
// main-memory store as versions stamped with ts — deletes set the end
// timestamp (the tuple stays visible to older snapshots), inserts begin
// at ts. The transaction layer stamps every commit after the load, so a
// zero ts, which every snapshot would see, is refused.
func (o *OFM) Commit(tx txn.ID, ts uint64) error {
	if ts == 0 {
		return fmt.Errorf("ofm %s: commit of %v at timestamp 0", o.cfg.Name, tx)
	}
	if out := fpOFMCommit.Eval(); out != nil {
		return fmt.Errorf("ofm %s: commit: %w", o.cfg.Name, out.Err)
	}
	// Shared checkpoint latch across the marker force AND the store
	// apply: a checkpoint interleaving between them would snapshot the
	// pre-commit store yet truncate the marker — the commit lost from
	// both stable images while living only in volatile memory.
	o.ckptMu.RLock()
	defer o.ckptMu.RUnlock()
	o.mu.Lock()
	w := o.pending[tx]
	o.mu.Unlock()
	if w == nil {
		return nil
	}
	if o.cfg.Kind == Persistent {
		// Group commit: the marker's disk force is shared with other
		// transactions committing on this log concurrently. The write set
		// stays pending until the marker is down, so a coordinator retry
		// after a transient failure re-runs a commit that still has its
		// work — popping it first would turn the retry into a silent no-op
		// that loses the transaction's effects.
		if err := o.cfg.Log.AppendCommit(tx, ts); err != nil {
			return fmt.Errorf("ofm %s: commit marker: %w", o.cfg.Name, err)
		}
	}
	o.mu.Lock()
	delete(o.pending, tx)
	o.mu.Unlock()
	for _, id := range w.deletes {
		o.store.DeleteVersion(id, ts)
	}
	for _, t := range w.inserts {
		if _, err := o.store.InsertVersion(t, ts); err != nil {
			return fmt.Errorf("ofm %s: commit apply: %w", o.cfg.Name, err)
		}
	}
	o.cfg.PE.Advance(o.costs().BuildCost(len(w.inserts) + len(w.deletes)))
	o.maybeVacuum()
	return nil
}

// vacuumThreshold is the dead-version count past which a commit triggers
// an opportunistic vacuum of the fragment.
const vacuumThreshold = 256

// maybeVacuum reclaims dead versions when enough have accumulated and a
// GC horizon is wired. The horizon is the oldest snapshot still pinned,
// so no reachable version is ever freed. A vacuum pass only runs when
// the horizon has advanced past the previous pass: versions that died
// since then carry newer end timestamps, so re-vacuuming at an unmoved
// horizon reclaims nothing — without the gate, a pinned horizon under a
// fast writer turns every commit into a full-store scan that starves
// readers of the store lock. A standalone OFM (no commit clock, so no
// snapshot can be reading old versions) reclaims eagerly at every
// commit, keeping the pre-MVCC memory profile.
func (o *OFM) maybeVacuum() {
	if o.cfg.Horizon == nil {
		if o.store.DeadVersions() > 0 {
			o.store.Vacuum(LatestTS)
		}
		return
	}
	if o.store.DeadVersions() < vacuumThreshold {
		return
	}
	h := o.cfg.Horizon()
	if h <= o.lastGC.Load() {
		return
	}
	o.lastGC.Store(h)
	o.store.Vacuum(h)
}

// Vacuum reclaims dead versions explicitly, up to the configured GC
// horizon (everything dead, when no horizon is wired). Returns the
// number of versions freed.
func (o *OFM) Vacuum() int {
	horizon := LatestTS
	if o.cfg.Horizon != nil {
		horizon = o.cfg.Horizon()
	}
	return o.store.Vacuum(horizon)
}

// Abort implements txn.Participant: the write set is dropped; a prepared
// persistent transaction logs an abort marker so recovery resolves it.
func (o *OFM) Abort(tx txn.ID) error {
	if out := fpOFMAbort.Eval(); out != nil {
		return fmt.Errorf("ofm %s: abort: %w", o.cfg.Name, out.Err)
	}
	// Shared checkpoint latch across dropping the write set AND logging
	// the abort marker, mirroring Prepare: a checkpoint between the two
	// would carry a write set that is no longer pending, resurrecting the
	// aborted transaction as in-doubt.
	o.ckptMu.RLock()
	defer o.ckptMu.RUnlock()
	o.mu.Lock()
	w := o.pending[tx]
	delete(o.pending, tx)
	o.mu.Unlock()
	if w == nil || o.cfg.Kind == Transient {
		return nil
	}
	if w.prepared {
		if err := o.cfg.Log.Append(wal.Record{Type: wal.RecAbort, Txn: tx}); err != nil {
			return fmt.Errorf("ofm %s: abort marker: %w", o.cfg.Name, err)
		}
	}
	return nil
}

// ---------- crash recovery ----------

// Crash simulates a PE failure: all volatile state (the store and any
// pending write sets) vanishes. Stable storage survives.
func (o *OFM) Crash() {
	o.mu.Lock()
	o.pending = map[txn.ID]*writeSet{}
	o.mu.Unlock()
	o.store.Clear()
}

// Recover rebuilds the fragment from stable storage: any torn log tail
// is truncated to its valid prefix, in-doubt prepared transactions are
// resolved through the configured Decide hook (commit when the
// coordinator's decision log says so, presumed abort otherwise), and
// the checkpoint image plus the log are replayed through the applier a
// replica runs. AppliedTS is then the highest commit timestamp
// recovered, which the restarted commit clock must advance past. Only
// Persistent OFMs can recover; a Transient OFM's contents are simply
// gone (its producer re-runs the query). Returns the number of insert
// and delete records of committed transactions applied.
func (o *OFM) Recover() (int, error) {
	if o.cfg.Kind != Persistent {
		return 0, fmt.Errorf("ofm %s: transient OFMs do not recover", o.cfg.Name)
	}
	res, err := o.cfg.Log.RecoverResolved(o.cfg.Decide)
	if err != nil {
		return 0, fmt.Errorf("ofm %s: %w", o.cfg.Name, err)
	}
	_, applied, err := o.restart(res.Snapshot, res.Records, LatestTS)
	if err != nil {
		return applied, err
	}
	// No snapshot survives a crash: the versions the redo deletes ended
	// have no readers.
	o.store.Vacuum(LatestTS)
	o.cfg.PE.Advance(o.costs().BuildCost(len(res.Snapshot) + applied))
	// Keep the report, not the decoded checkpoint and log it carried.
	res.Snapshot, res.Records = nil, nil
	o.mu.Lock()
	o.lastRecovery = res
	o.mu.Unlock()
	return applied, nil
}

// LastRecovery returns the report of the last Recover, less its
// Snapshot and Records (nil before any recovery) — the crashpoint sweep
// asserts its in-doubt accounting.
func (o *OFM) LastRecovery() *wal.RecoveryResult {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastRecovery
}

// Checkpoint folds the committed store into the checkpoint segment and
// truncates the log (persistent OFMs only; transient is a no-op). It
// holds the checkpoint latch exclusive so no commit lands between the
// store snapshot and the log swap, and carries the redo records of
// transactions sitting prepared-but-undecided into the fresh log — the
// coordinator's decision log may yet declare them committed, so their
// redo must survive the truncation (their writes are not in the
// snapshot: write sets apply to the store only at commit).
func (o *OFM) Checkpoint() error {
	if o.cfg.Kind != Persistent {
		return nil
	}
	o.ckptMu.Lock()
	defer o.ckptMu.Unlock()
	o.mu.Lock()
	var carry []wal.Record
	for tx, w := range o.pending {
		if !w.prepared {
			continue
		}
		// Same shape Prepare forced: deletes, inserts, prepare seal.
		// Strict 2PL keeps concurrently-prepared write sets disjoint, so
		// inter-transaction order is immaterial.
		for _, t := range w.delTuple {
			carry = append(carry, wal.Record{Type: wal.RecDelete, Txn: tx, Tuple: t})
		}
		for _, t := range w.inserts {
			carry = append(carry, wal.Record{Type: wal.RecInsert, Txn: tx, Tuple: t})
		}
		carry = append(carry, wal.Record{Type: wal.RecPrepare, Txn: tx})
	}
	o.mu.Unlock()
	if err := o.cfg.Log.CheckpointImage(o.store.Image(), carry); err != nil {
		return fmt.Errorf("ofm %s: checkpoint: %w", o.cfg.Name, err)
	}
	return nil
}
