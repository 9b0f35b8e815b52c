package ofm

import (
	"fmt"
	"sort"

	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// The applier: the one code that turns WAL records into store versions.
// A subscribed replica runs it on the primary's records as they are
// shipped, and a restart — a crashed primary's Recover, a replica's
// ReplayLocal — runs it on the fragment's own log after loading the
// checkpoint. Records are applied in log order: write sets buffer until
// their commit marker arrives, aborts drop them, and each commit
// installs versions with the commit timestamp its marker carries, so the
// store's MVCC snapshots line up with the committing primary's
// watermark.
//
// Commits are only applied up to the stream's last consistent status
// watermark. A commit spanning several fragments has one marker per
// fragment log, and those logs ship as separate frames: if the stream
// dies mid-batch one fragment may hold the marker while another does
// not. Applying eagerly would expose half a transaction at promotion.
// Instead a marker with ts above the limit parks in applyDeferred; a
// later status (whose batch, by the primary's watermark ordering, is
// guaranteed to carry every marker at or below it on every log)
// releases it via AdvanceApplied, and promotion resolves the leftovers
// atomically across fragments (see Engine.PromoteApply).
//
// The replication stream applies one frame at a time (repl.Replica's
// stream mutex, which also covers crash replay and promotion), so these
// calls never overlap each other on a fragment; snapshot scans run
// beside them and read only committed versions.

// applyWS buffers one in-flight transaction's shipped write set.
type applyWS struct {
	inserts []value.Tuple
	deletes []value.Tuple
}

// ApplyRecords applies shipped WAL records in order. Commit markers
// with ts <= limit apply immediately; later ones defer until
// AdvanceApplied. A commit applies its buffered write set whatever its
// timestamp — a resolution healed into the log at restart follows the
// commits logged after the transaction prepared — and the buffer goes
// with its first marker, so no write set applies twice. (A resubscribed
// stream's overlap is cut off by byte offset before it gets here.)
// Returns the highest commit timestamp applied.
func (o *OFM) ApplyRecords(recs []wal.Record, limit uint64) (uint64, error) {
	maxTS, applied, err := o.apply(recs, limit)
	if err == nil {
		o.cfg.PE.Advance(o.costs().BuildCost(applied))
	}
	return maxTS, err
}

// apply is ApplyRecords without the charge: it also returns how many
// insert and delete records it applied.
func (o *OFM) apply(recs []wal.Record, limit uint64) (maxTS uint64, applied int, err error) {
	if o.cfg.Kind != Persistent {
		return 0, 0, fmt.Errorf("ofm %s: transient OFMs do not replicate", o.cfg.Name)
	}
	o.mu.Lock()
	maxTS = o.appliedTS
	o.mu.Unlock()
	for _, r := range recs {
		switch r.Type {
		case wal.RecInsert:
			ws := o.applyWSFor(r.Txn)
			ws.inserts = append(ws.inserts, r.Tuple)
		case wal.RecDelete:
			ws := o.applyWSFor(r.Txn)
			ws.deletes = append(ws.deletes, r.Tuple)
		case wal.RecPrepare:
			o.applyWSFor(r.Txn) // ensure the buffer exists, even if empty
		case wal.RecAbort:
			o.mu.Lock()
			delete(o.applyPend, r.Txn)
			delete(o.applyDeferred, r.Txn)
			o.mu.Unlock()
		case wal.RecCommit:
			o.mu.Lock()
			if r.TS > limit {
				// Park until a status watermark covers it.
				if o.applyDeferred == nil {
					o.applyDeferred = map[txn.ID]uint64{}
				}
				o.applyDeferred[r.Txn] = r.TS
				o.mu.Unlock()
				continue
			}
			ws := o.applyPend[r.Txn]
			delete(o.applyPend, r.Txn)
			delete(o.applyDeferred, r.Txn)
			o.appliedTS = max(o.appliedTS, r.TS)
			o.mu.Unlock()
			if ws == nil {
				continue
			}
			if err := o.applyCommit(ws, r.TS); err != nil {
				return maxTS, applied, err
			}
			maxTS = max(maxTS, r.TS)
			applied += len(ws.inserts) + len(ws.deletes)
		}
	}
	return maxTS, applied, nil
}

// restart rebuilds the fragment's volatile state from a checkpoint image
// and the log records after it: every buffered write set and watermark
// is dropped, the store is refilled from the snapshot, and the records
// are applied with commits above limit deferred. Returns the highest
// commit timestamp and the number of records applied.
func (o *OFM) restart(snapshot []value.Tuple, recs []wal.Record, limit uint64) (uint64, int, error) {
	o.mu.Lock()
	o.pending = map[txn.ID]*writeSet{}
	o.applyPend = map[txn.ID]*applyWS{}
	o.applyDeferred = map[txn.ID]uint64{}
	o.appliedTS = 0
	o.mu.Unlock()
	o.store.Clear()
	if err := o.store.InsertBatch(snapshot); err != nil {
		return 0, 0, fmt.Errorf("ofm %s: restart snapshot: %w", o.cfg.Name, err)
	}
	return o.apply(recs, limit)
}

// AdvanceApplied applies every deferred commit at or below limit, in
// commit-timestamp order — called when a new status watermark arrives.
func (o *OFM) AdvanceApplied(limit uint64) (uint64, error) {
	type due struct {
		tx txn.ID
		ts uint64
	}
	o.mu.Lock()
	var ready []due
	for tx, ts := range o.applyDeferred {
		if ts <= limit {
			ready = append(ready, due{tx, ts})
		}
	}
	o.mu.Unlock()
	sort.Slice(ready, func(i, j int) bool { return ready[i].ts < ready[j].ts })
	applied := 0
	var maxTS uint64
	for _, d := range ready {
		o.mu.Lock()
		ws := o.applyPend[d.tx]
		delete(o.applyPend, d.tx)
		delete(o.applyDeferred, d.tx)
		o.appliedTS = max(o.appliedTS, d.ts)
		o.mu.Unlock()
		if ws == nil {
			continue
		}
		if err := o.applyCommit(ws, d.ts); err != nil {
			return maxTS, err
		}
		maxTS = d.ts
		applied += len(ws.inserts) + len(ws.deletes)
	}
	o.cfg.PE.Advance(o.costs().BuildCost(applied))
	return maxTS, nil
}

// applyWSFor returns (creating if needed) a transaction's apply buffer.
func (o *OFM) applyWSFor(tx txn.ID) *applyWS {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.applyPend == nil {
		o.applyPend = map[txn.ID]*applyWS{}
	}
	ws := o.applyPend[tx]
	if ws == nil {
		ws = &applyWS{}
		o.applyPend[tx] = ws
	}
	return ws
}

// applyCommit installs one committed write set: deletes end the current
// version equal to the logged image at the commit timestamp (a replica
// has live snapshot readers below the incoming commit), inserts begin
// new versions at it.
func (o *OFM) applyCommit(ws *applyWS, ts uint64) error {
	for _, tuple := range ws.deletes {
		if id, ok := o.store.FindCurrent(tuple); ok {
			o.store.DeleteVersion(id, ts)
		}
	}
	for _, tuple := range ws.inserts {
		if _, err := o.store.InsertVersion(tuple, ts); err != nil {
			return fmt.Errorf("ofm %s: apply insert: %w", o.cfg.Name, err)
		}
	}
	return nil
}

// InstallSync replaces the fragment wholesale from a shipped sync
// image (checkpoint segment + raw log bytes) and replays it, returning
// the fragment's new durable offset and highest applied commit TS.
func (o *OFM) InstallSync(ckpt, logBytes []byte, gen, limit uint64) (int64, uint64, error) {
	if err := o.cfg.Log.InstallImage(ckpt, logBytes, gen); err != nil {
		return 0, 0, fmt.Errorf("ofm %s: install sync image: %w", o.cfg.Name, err)
	}
	return o.ReplayLocal(limit)
}

// ReplayLocal rebuilds the fragment's volatile store from its own
// durable checkpoint and log — the replica's crash recovery. Unlike
// Recover it performs no healing and no presumed-abort resolution:
// prepared-but-undecided transactions stay buffered, because their
// commit or abort marker is still in flight on the replication stream.
// Commits above limit (the replica's durable status watermark) defer,
// exactly as they did on first receipt. Returns the durable replication
// offset (valid log prefix) and the highest applied commit TS.
func (o *OFM) ReplayLocal(limit uint64) (int64, uint64, error) {
	if o.cfg.Kind != Persistent {
		return 0, 0, fmt.Errorf("ofm %s: transient OFMs do not replicate", o.cfg.Name)
	}
	snapshot, err := o.cfg.Log.LoadCheckpoint()
	if err != nil {
		return 0, 0, fmt.Errorf("ofm %s: replay checkpoint: %w", o.cfg.Name, err)
	}
	recs, err := o.cfg.Log.Scan()
	if err != nil {
		return 0, 0, err
	}
	maxTS, applied, err := o.restart(snapshot, recs, limit)
	if err != nil {
		return 0, 0, err
	}
	o.cfg.PE.Advance(o.costs().BuildCost(applied))
	return o.cfg.Log.ValidSize(), maxTS, nil
}

// PendingApplied reports the fragment's unresolved shipped
// transactions: every buffered write set or deferred commit, mapped to
// the commit timestamp its marker carried (0 when no marker arrived).
// Promotion uses this to decide, across fragments, which in-flight
// transactions roll forward and which are presumed aborted.
func (o *OFM) PendingApplied() map[txn.ID]uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := map[txn.ID]uint64{}
	for tx := range o.applyPend {
		out[tx] = o.applyDeferred[tx]
	}
	for tx, ts := range o.applyDeferred {
		out[tx] = ts
	}
	return out
}

// ResolveApplied rolls one pending shipped transaction forward at
// promotion: the commit marker is durably healed into the local log if
// this fragment never received it (the replica is primary now — its
// log is the authority), then the write set installs at ts.
func (o *OFM) ResolveApplied(tx txn.ID, ts uint64) error {
	o.mu.Lock()
	ws := o.applyPend[tx]
	_, hadMarker := o.applyDeferred[tx]
	delete(o.applyPend, tx)
	delete(o.applyDeferred, tx)
	if ts > o.appliedTS {
		o.appliedTS = ts
	}
	o.mu.Unlock()
	if !hadMarker {
		if err := o.cfg.Log.Append(wal.Record{Type: wal.RecCommit, Txn: tx, TS: ts}); err != nil {
			return fmt.Errorf("ofm %s: promote commit %d: %w", o.cfg.Name, tx, err)
		}
	}
	if ws == nil {
		return nil
	}
	return o.applyCommit(ws, ts)
}

// AbortApplied presumed-aborts one pending shipped transaction at
// promotion, healing the abort marker into the local log.
func (o *OFM) AbortApplied(tx txn.ID) error {
	o.mu.Lock()
	_, ok := o.applyPend[tx]
	delete(o.applyPend, tx)
	delete(o.applyDeferred, tx)
	o.mu.Unlock()
	if !ok {
		return nil
	}
	if err := o.cfg.Log.Append(wal.Record{Type: wal.RecAbort, Txn: tx}); err != nil {
		return fmt.Errorf("ofm %s: promote abort %d: %w", o.cfg.Name, tx, err)
	}
	return nil
}

// DeferredCount reports how many shipped commits are parked waiting
// for a status watermark. The replica's status handler uses it to skip
// the per-fragment advance call entirely when it would be a no-op —
// status frames arrive every poll interval, and paying a message
// round-trip per fragment per poll would dwarf the read work the
// replica exists to serve.
func (o *OFM) DeferredCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.applyDeferred)
}

// AppliedTS returns the highest commit timestamp this fragment has
// applied: from the replication stream, or from its own log at the
// last restart.
func (o *OFM) AppliedTS() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.appliedTS
}
