package ofm

import (
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// LatestTS is the snapshot timestamp that sees the newest committed
// state (every committed version, no dead ones).
const LatestTS = ^uint64(0)

// View selects which tuple versions a read observes. Reads carry a
// pinned snapshot timestamp and take no locks; autocommit DML matches
// rows at Latest under its fragment lock.
type View struct {
	// TS is the snapshot timestamp: the view contains exactly the
	// versions committed at or before TS (begin <= TS < end).
	TS uint64
	// Tx, when nonzero, overlays that transaction's own pending write
	// set — read-your-own-writes within a transaction.
	Tx txn.ID
}

// Latest is the view of the newest committed state with no overlay.
var Latest = View{TS: LatestTS}

// isSnapshot reports whether the view is a pinned snapshot (as opposed
// to Latest). Write paths use it to decide whether first-committer-wins
// validation applies.
func (v View) isSnapshot() bool { return v.TS != LatestTS }

// overlay returns the view transaction's pending write set on this
// fragment: the set of row ids it has deleted and a copy of the tuples
// it has inserted. Both are nil when the view carries no transaction or
// the transaction has no pending writes here.
func (o *OFM) overlay(view View) (del map[storage.RowID]struct{}, ins []value.Tuple) {
	if view.Tx == 0 {
		return nil, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	w := o.pending[view.Tx]
	if w == nil {
		return nil, nil
	}
	if len(w.deletes) > 0 {
		del = make(map[storage.RowID]struct{}, len(w.deletes))
		for _, id := range w.deletes {
			del[id] = struct{}{}
		}
	}
	if len(w.inserts) > 0 {
		ins = append([]value.Tuple(nil), w.inserts...)
	}
	return del, ins
}

// VisibleTuples materializes the view as tuples, a row at a time off the
// store: committed versions visible at view.TS, minus the versions the view
// transaction deleted, plus the tuples it inserted. The closure operator
// reads it, and tests hold ScanBatch to it.
func (o *OFM) VisibleTuples(view View) []value.Tuple {
	del, ins := o.overlay(view)
	out := make([]value.Tuple, 0, o.store.Len()+len(ins))
	o.store.ScanAt(view.TS, func(id storage.RowID, t value.Tuple) bool {
		if _, gone := del[id]; !gone {
			out = append(out, t)
		}
		return true
	})
	return append(out, ins...)
}
