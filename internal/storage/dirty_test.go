package storage

import (
	"testing"
)

func loadEmps(t *testing.T, s *Store, n int) []RowID {
	t.Helper()
	ids := make([]RowID, n)
	for i := range ids {
		id, err := s.Insert(emp(int64(i), "e", float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// TestVacuumWalksDeadList: Vacuum reclaims exactly the dead versions at or
// behind the horizon, keeps the rest for a later pass, and frees slots in
// ascending order whatever order the versions died in — so slot reuse
// (last freed, first reused) is the same as a walk over the store gave.
func TestVacuumWalksDeadList(t *testing.T) {
	s := NewStore(empSchema())
	ids := loadEmps(t, s, 10)
	for ts, i := range map[uint64]int{5: 7, 6: 2, 9: 5, 12: 3} {
		if !s.DeleteVersion(ids[i], ts) {
			t.Fatalf("DeleteVersion slot %d", i)
		}
	}
	if s.DeadVersions() != 4 || s.Len() != 6 {
		t.Fatalf("dead/live = %d/%d, want 4/6", s.DeadVersions(), s.Len())
	}
	// Old snapshots still see the dead versions until the horizon passes.
	if _, ok := s.GetAt(ids[5], 8); !ok {
		t.Error("version dead at ts 9 invisible at ts 8")
	}
	if n := s.Vacuum(4); n != 0 {
		t.Errorf("vacuum behind every death reclaimed %d", n)
	}
	if n := s.Vacuum(9); n != 3 || s.DeadVersions() != 1 {
		t.Fatalf("vacuum(9) reclaimed %d, %d still dead; want 3 and 1", n, s.DeadVersions())
	}
	if _, ok := s.GetAt(ids[3], 10); !ok {
		t.Error("version dead at ts 12 reclaimed by vacuum(9)")
	}
	// Reuse order: 7, then 5, then 2.
	for _, want := range []int{7, 5, 2} {
		id, err := s.InsertVersion(emp(100, "new", 1), 20)
		if err != nil {
			t.Fatal(err)
		}
		if id.Slot() != want {
			t.Errorf("insert landed in slot %d, want %d", id.Slot(), want)
		}
	}
	if n := s.Vacuum(12); n != 1 || s.DeadVersions() != 0 {
		t.Errorf("vacuum(12) reclaimed %d, %d still dead; want 1 and 0", n, s.DeadVersions())
	}
	s.Clear()
	if s.DeadVersions() != 0 || s.Vacuum(^uint64(0)) != 0 {
		t.Error("Clear left dead versions behind")
	}
}

func drain(t *testing.T, s *Store) []DirtySlot {
	t.Helper()
	out, _, _, ok := s.DrainDirty(nil)
	if !ok {
		t.Fatal("DrainDirty: log not armed or lost")
	}
	return out
}

// TestDirtyLogFollowsMutations: once SnapshotSlots arms the log, a drain
// names exactly the slots mutated since, each in its current state, and
// says whether the tuple or only the stamps moved.
func TestDirtyLogFollowsMutations(t *testing.T) {
	s := NewStore(empSchema())
	ids := loadEmps(t, s, 4)
	if _, _, _, ok := s.DrainDirty(nil); ok {
		t.Fatal("drain succeeded on a log nobody armed")
	}
	tuples, begin, end, ver := s.SnapshotSlots(true)
	if len(tuples) != 4 || len(begin) != 4 || len(end) != 4 || ver != s.Version() {
		t.Fatalf("SnapshotSlots = %d/%d/%d slots at version %d", len(tuples), len(begin), len(end), ver)
	}
	if got := drain(t, s); len(got) != 0 {
		t.Fatalf("fresh log drained %d entries", len(got))
	}

	s.DeleteVersion(ids[1], 5)
	appended, _ := s.InsertVersion(emp(9, "n", 1), 5)
	got, slots, ver, ok := s.DrainDirty(nil)
	if !ok || slots != 5 || ver != s.Version() || len(got) != 2 {
		t.Fatalf("drain = %v, slots %d, version %d, ok %v", got, slots, ver, ok)
	}
	if d := got[0]; d.Slot != 1 || !d.StampsOnly || d.Tuple == nil || d.Begin != 0 || d.End != 5 {
		t.Errorf("delete entry = %+v", d)
	}
	if d := got[1]; d.Slot != appended.Slot() || d.StampsOnly || d.Tuple == nil || d.Begin != 5 || d.End != 0 {
		t.Errorf("insert entry = %+v", d)
	}

	// Vacuum frees the slot, the next insert refills it: both entries show
	// the slot as it is now.
	s.Vacuum(5)
	reused, _ := s.InsertVersion(emp(10, "r", 2), 7)
	if reused.Slot() != 1 {
		t.Fatalf("insert reused slot %d, want 1", reused.Slot())
	}
	got = drain(t, s)
	if len(got) != 2 || got[0].Slot != 1 || got[1].Slot != 1 || got[0].StampsOnly || got[0].Begin != 7 || got[1].Tuple == nil {
		t.Errorf("vacuum+reuse entries = %+v", got)
	}
	s.DeleteVersion(reused, 8)
	s.Vacuum(8)
	if got = drain(t, s); len(got) != 2 || got[1].Tuple != nil {
		t.Errorf("a freed slot must drain with a nil tuple: %+v", got)
	}

	// A later snapshot leaves holes where slots are free.
	tuples, _, _, _ = s.SnapshotSlots(true)
	if len(tuples) != 5 || tuples[1] != nil || tuples[0] == nil {
		t.Errorf("slot-positional snapshot = %v", tuples)
	}
}

// TestDirtyLogLost: overflow and the mutations a patch cannot express mark
// the log lost until the next SnapshotSlots; Untrack switches it off.
func TestDirtyLogLost(t *testing.T) {
	lost := func(s *Store) bool {
		_, _, _, ok := s.DrainDirty(nil)
		return !ok
	}
	s := NewStore(empSchema())
	ids := loadEmps(t, s, 3)
	s.SnapshotSlots(true)
	for i := 0; i < dirtyLogCap; i++ {
		s.InsertVersion(emp(int64(i), "x", 0), 1)
	}
	if lost(s) {
		t.Fatal("a full log must still drain")
	}
	for i := 0; i <= dirtyLogCap; i++ {
		s.InsertVersion(emp(int64(i), "x", 0), 1)
	}
	if !lost(s) {
		t.Error("overflow did not lose the log")
	}
	mutations := []struct {
		name   string
		mutate func()
	}{
		{"Delete", func() { s.Delete(ids[0]) }},
		{"Update", func() {
			if err := s.Update(ids[1], emp(1, "u", 1)); err != nil {
				t.Fatal(err)
			}
		}},
		{"Clear", s.Clear},
	}
	for _, m := range mutations {
		s.SnapshotSlots(true)
		if lost(s) {
			t.Fatalf("%s: SnapshotSlots did not re-arm", m.name)
		}
		m.mutate()
		if !lost(s) {
			t.Errorf("%s did not lose the log", m.name)
		}
	}
	s.SnapshotSlots(true)
	s.Untrack()
	s.InsertVersion(emp(1, "x", 0), 1)
	if !lost(s) {
		t.Error("drain succeeded after Untrack")
	}
}
