package storage

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/value"
)

func empSchema() *value.Schema {
	return value.MustSchema("id", "INT", "name", "VARCHAR", "salary", "FLOAT")
}

func emp(id int64, name string, salary float64) value.Tuple {
	return value.NewTuple(value.NewInt(id), value.NewString(name), value.NewFloat(salary))
}

func TestInsertGetDelete(t *testing.T) {
	s := NewStore(empSchema())
	id, err := s.Insert(emp(1, "ann", 100))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(id)
	if !ok || got[1].Str() != "ann" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if !s.Delete(id) {
		t.Error("Delete failed")
	}
	if s.Delete(id) {
		t.Error("double Delete should fail")
	}
	if _, ok := s.Get(id); ok {
		t.Error("Get after Delete should fail")
	}
	if s.Len() != 0 {
		t.Errorf("Len after delete = %d", s.Len())
	}
	if _, ok := s.Get(-1); ok {
		t.Error("negative id should miss")
	}
	if _, ok := s.Get(99); ok {
		t.Error("out-of-range id should miss")
	}
}

func TestRowIDGenerations(t *testing.T) {
	s := NewStore(empSchema())
	id1, _ := s.Insert(emp(1, "a", 1))
	s.Delete(id1)
	id2, _ := s.Insert(emp(2, "b", 2))
	// The slot is reused (no unbounded growth)...
	if id1.Slot() != id2.Slot() {
		t.Errorf("tombstone slot not reused: slots %d then %d", id1.Slot(), id2.Slot())
	}
	// ...but the id is fresh, so the stale id misses rather than aliasing.
	if id1 == id2 {
		t.Error("row ids must never be reused")
	}
	if _, ok := s.Get(id1); ok {
		t.Error("stale id resolved to the new tuple")
	}
	if got, ok := s.Get(id2); !ok || got[0].Int() != 2 {
		t.Errorf("fresh id lookup = %v, %v", got, ok)
	}
	// Stale ids can't delete or update the new occupant either.
	if s.Delete(id1) {
		t.Error("stale delete succeeded")
	}
	if err := s.Update(id1, emp(3, "c", 3)); err == nil {
		t.Error("stale update succeeded")
	}
}

func TestTypeChecking(t *testing.T) {
	s := NewStore(empSchema())
	if _, err := s.Insert(value.Ints(1, 2)); err == nil {
		t.Error("arity mismatch should error")
	}
	if _, err := s.Insert(value.NewTuple(value.NewString("x"), value.NewString("y"), value.NewFloat(1))); err == nil {
		t.Error("kind mismatch should error")
	}
	// NULLs are allowed in any column.
	if _, err := s.Insert(value.NewTuple(value.Null, value.Null, value.Null)); err != nil {
		t.Errorf("NULL tuple rejected: %v", err)
	}
	// Ints widen into float columns.
	id, err := s.Insert(value.NewTuple(value.NewInt(1), value.NewString("x"), value.NewInt(42)))
	if err != nil {
		t.Fatalf("int into float column rejected: %v", err)
	}
	got, _ := s.Get(id)
	if got[2].Kind() != value.KindFloat || got[2].Float() != 42 {
		t.Errorf("widening produced %v", got[2])
	}
}

func TestUpdate(t *testing.T) {
	s := NewStore(empSchema())
	id, _ := s.Insert(emp(1, "ann", 100))
	if err := s.Update(id, emp(1, "ann", 200)); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(id)
	if got[2].Float() != 200 {
		t.Errorf("Update did not stick: %v", got)
	}
	if err := s.Update(99, emp(1, "x", 1)); err == nil {
		t.Error("updating a missing row should error")
	}
	if err := s.Update(id, value.Ints(1)); err == nil {
		t.Error("bad tuple should error")
	}
}

func TestScanAndSnapshot(t *testing.T) {
	s := NewStore(empSchema())
	for i := 0; i < 10; i++ {
		if _, err := s.Insert(emp(int64(i), fmt.Sprintf("e%d", i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	s.Scan(func(id RowID, tp value.Tuple) bool { seen++; return true })
	if seen != 10 {
		t.Errorf("Scan visited %d", seen)
	}
	// Early stop.
	seen = 0
	s.Scan(func(id RowID, tp value.Tuple) bool { seen++; return seen < 3 })
	if seen != 3 {
		t.Errorf("early-stop Scan visited %d", seen)
	}
	if got := len(s.Snapshot()); got != 10 {
		t.Errorf("Snapshot = %d tuples", got)
	}
}

func TestMemAccounting(t *testing.T) {
	s := NewStore(empSchema())
	var tracked int64
	s.OnMemChange(func(d int64) { tracked += d })
	id, _ := s.Insert(emp(1, "somebody", 1))
	if s.MemSize() <= 0 || tracked != s.MemSize() {
		t.Errorf("mem %d tracked %d", s.MemSize(), tracked)
	}
	if err := s.Update(id, emp(1, "somebody with a much longer name", 1)); err != nil {
		t.Fatal(err)
	}
	if tracked != s.MemSize() {
		t.Errorf("after update: mem %d tracked %d", s.MemSize(), tracked)
	}
	s.Delete(id)
	if s.MemSize() != 0 || tracked != 0 {
		t.Errorf("after delete: mem %d tracked %d", s.MemSize(), tracked)
	}
}

func TestClear(t *testing.T) {
	s := NewStore(empSchema())
	if _, err := s.CreateHashIndex("by_id", []int{0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Insert(emp(int64(i), "x", 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Clear()
	if s.Len() != 0 || s.MemSize() != 0 {
		t.Errorf("Clear left %d rows, %d bytes", s.Len(), s.MemSize())
	}
	idx, ok := s.HashIndexOn([]int{0})
	if !ok || idx.Len() != 0 {
		t.Error("Clear should empty indexes but keep them defined")
	}
	// Store still usable.
	if _, err := s.Insert(emp(9, "y", 2)); err != nil {
		t.Fatal(err)
	}
	if got := idx.Lookup([]value.Value{value.NewInt(9)}); len(got) != 1 {
		t.Errorf("index after Clear+Insert = %v", got)
	}
}

func TestMarkings(t *testing.T) {
	s := NewStore(empSchema())
	var ids []RowID
	for i := 0; i < 5; i++ {
		id, _ := s.Insert(emp(int64(i), "x", 1))
		ids = append(ids, id)
	}
	s.Mark("hot", ids[0], ids[2])
	if !s.Marked("hot", ids[0]) || s.Marked("hot", ids[1]) {
		t.Error("marking membership wrong")
	}
	if got := len(s.MarkedRows("hot")); got != 2 {
		t.Errorf("MarkedRows = %d", got)
	}
	// Deleting a row clears its markings.
	s.Delete(ids[0])
	if s.Marked("hot", ids[0]) {
		t.Error("deleted row still marked")
	}
	s.Unmark("hot", ids[2])
	if len(s.MarkedRows("hot")) != 0 {
		t.Error("Unmark by id failed")
	}
	s.Mark("all", ids[1], ids[3])
	s.Unmark("all")
	if len(s.MarkedRows("all")) != 0 {
		t.Error("Unmark all failed")
	}
	// Marking a dead row is a no-op.
	s.Mark("x", ids[0])
	if len(s.MarkedRows("x")) != 0 {
		t.Error("marking a deleted row should be ignored")
	}
}

func TestCursorStability(t *testing.T) {
	s := NewStore(empSchema())
	var ids []RowID
	for i := 0; i < 6; i++ {
		id, _ := s.Insert(emp(int64(i), "x", 1))
		ids = append(ids, id)
	}
	cur := s.OpenCursor()
	if cur.Remaining() != 6 {
		t.Errorf("Remaining = %d", cur.Remaining())
	}
	// Delete a not-yet-visited row and insert a new one mid-iteration.
	_, _, _ = cur.Next()
	s.Delete(ids[3])
	if _, err := s.Insert(emp(99, "new", 9)); err != nil {
		t.Fatal(err)
	}
	count := 1
	for {
		_, tp, ok := cur.Next()
		if !ok {
			break
		}
		count++
		if tp[0].Int() == 99 {
			t.Error("cursor saw a row inserted after open")
		}
		if tp[0].Int() == 3 {
			t.Error("cursor saw a deleted row")
		}
	}
	if count != 5 {
		t.Errorf("cursor visited %d rows, want 5", count)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore(empSchema())
	if _, err := s.CreateHashIndex("by_id", []int{0}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id, err := s.Insert(emp(int64(w*1000+i), "w", float64(i)))
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					s.Delete(id)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.Scan(func(RowID, value.Tuple) bool { return true })
			_ = s.Snapshot()
		}
	}()
	wg.Wait()
	// 4 writers * 200 inserts, a third deleted.
	want := 4 * (200 - 67)
	if s.Len() != want {
		t.Errorf("Len = %d, want %d", s.Len(), want)
	}
}
