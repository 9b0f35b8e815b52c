package storage

// The dirty-slot log lets a structure derived from the store — the OFM's
// slot-addressed column cache — follow it in O(slots changed) instead of
// re-reading every slot after a write. SnapshotSlots hands the consumer
// the store slot by slot and arms the log; from then on InsertVersion,
// DeleteVersion and Vacuum record the slot they touch, and DrainDirty
// names exactly those slots, each with the offset of its row in the slab
// and its stamps as they are now. The log is bounded:
// when it overflows, or when Clear empties the store (a mutation a patch
// cannot express), it is marked lost and the consumer must take a fresh
// SnapshotSlots. No mutator frees a version that is still current: a
// delete only ends it, and Vacuum frees it once no snapshot sees it.
//
// A log entry is a slot index when the slot's row changed (a version
// inserted into it, or the slot freed) and the index's complement when
// only its stamps did (DeleteVersion). The difference matters to a
// consumer whose readers hold no lock: a dead version stays visible to
// older snapshots, so its values must not be rewritten, whereas a slot is
// freed — and later refilled — only once no pinned snapshot can see it.

// dirtyLogCap bounds the log. One Vacuum pass logs every slot it frees
// (the OFM starts one at 256 dead versions), so the cap leaves room for a
// pass plus the writes around it; a longer backlog costs one rebuild.
const dirtyLogCap = 1024

// DirtyLogBytes is the log's footprint while armed, for the consumer to
// account against its processing element.
const DirtyLogBytes = dirtyLogCap * 4

// DirtySlot is the current state of one slot named by the log.
type DirtySlot struct {
	Slot       int
	Off        int // the slot's row at slab[Off:]; -1 = the slot is free
	Begin, End uint64
	// StampsOnly: the row is the one the consumer already has; only
	// Begin/End moved.
	StampsOnly bool
}

// noteDirty records a log entry. Caller holds s.mu.
func (s *Store) noteDirty(entry int32) {
	if !s.tracking || s.dirtyLost {
		return
	}
	if len(s.dirty) == dirtyLogCap {
		s.dirtyLost = true
		return
	}
	s.dirty = append(s.dirty, entry)
}

// SnapshotSlots returns the store slot by slot — slot i's version is the
// row at slab[offs[i]:] (offs[i] < 0: free), stamped begin[i] and
// end[i], in the store's own slab, to decode with no lock held — plus the
// mutation counter, all under one lock acquisition. With track set the
// same acquisition arms the dirty-slot log, empty, so a later DrainDirty
// reports exactly the slots mutated after this snapshot.
func (s *Store) SnapshotSlots(track bool) (slab []byte, offs []int, begin, end []uint64, version uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.rows)
	offs = make([]int, n)
	begin = make([]uint64, n)
	end = make([]uint64, n)
	for i := range s.rows {
		sl := &s.rows[i]
		offs[i], begin[i], end[i] = sl.off, sl.begin, sl.end
	}
	if track {
		s.tracking, s.dirtyLost = true, false
		if s.dirty == nil {
			s.dirty = make([]int32, 0, dirtyLogCap)
		}
		s.dirty = s.dirty[:0]
	}
	return s.slab, offs, begin, end, s.version
}

// DrainDirty appends to buf the current state of every slot logged since
// the log was armed or last drained, in log order (a slot mutated twice
// appears twice, both times in its current state), empties the log, and
// returns the store's slab the entries' offsets point into — like
// SnapshotSlots, to decode with no lock held — and the slot count and
// mutation counter the entries are current at. ok is false when the log
// is not armed or was lost: nothing is drained and the caller must
// resynchronise through SnapshotSlots.
func (s *Store) DrainDirty(buf []DirtySlot) (slab []byte, out []DirtySlot, slots int, version uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.tracking || s.dirtyLost {
		return nil, buf, 0, 0, false
	}
	for _, e := range s.dirty {
		d := DirtySlot{Slot: int(e)}
		if e < 0 {
			d.Slot, d.StampsOnly = int(^e), true
		}
		sl := &s.rows[d.Slot]
		d.Off, d.Begin, d.End = sl.off, sl.begin, sl.end
		buf = append(buf, d)
	}
	s.dirty = s.dirty[:0]
	return s.slab, buf, len(s.rows), s.version, true
}
