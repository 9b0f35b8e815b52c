package storage

import (
	"fmt"
	"math"
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

// Insert adds a tuple visible to every snapshot (begin timestamp 0).
func (s *Store) Insert(t value.Tuple) (RowID, error) { return s.InsertVersion(t, 0) }

// current returns the current version at id: what the latest snapshot sees.
func current(s *Store, id RowID) (value.Tuple, bool) { return s.GetAt(nil, id, math.MaxUint64) }

// remove ends the current version at id and vacuums every ended version
// away, freeing their slots.
func remove(s *Store, id RowID) bool {
	ok := s.DeleteVersion(id, 1)
	s.Vacuum(math.MaxUint64)
	return ok
}

func TestInsertGetDelete(t *testing.T) {
	s := NewStore(empSchema())
	id, err := s.Insert(emp(1, "ann", 100))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := current(s, id)
	if !ok || got[1].Str() != "ann" {
		t.Fatalf("GetAt = %v, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if !remove(s, id) {
		t.Error("remove failed")
	}
	if remove(s, id) {
		t.Error("double remove should fail")
	}
	if _, ok := current(s, id); ok {
		t.Error("GetAt after remove should fail")
	}
	if s.Len() != 0 {
		t.Errorf("Len after delete = %d", s.Len())
	}
	if _, ok := current(s, -1); ok {
		t.Error("negative id should miss")
	}
	if _, ok := current(s, 99); ok {
		t.Error("out-of-range id should miss")
	}
}

func TestRowIDGenerations(t *testing.T) {
	s := NewStore(empSchema())
	id1, _ := s.Insert(emp(1, "a", 1))
	remove(s, id1)
	id2, _ := s.Insert(emp(2, "b", 2))
	// The slot is reused (no unbounded growth)...
	if id1.Slot() != id2.Slot() {
		t.Errorf("tombstone slot not reused: slots %d then %d", id1.Slot(), id2.Slot())
	}
	// ...but the id is fresh, so the stale id misses rather than aliasing.
	if id1 == id2 {
		t.Error("row ids must never be reused")
	}
	if _, ok := current(s, id1); ok {
		t.Error("stale id resolved to the new tuple")
	}
	if got, ok := current(s, id2); !ok || got[0].Int() != 2 {
		t.Errorf("fresh id lookup = %v, %v", got, ok)
	}
	// A stale id can't delete the new occupant either.
	if remove(s, id1) {
		t.Error("stale delete succeeded")
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
	got, _ := current(s, id)
	if got[2].Kind() != value.KindFloat || got[2].Float() != 42 {
		t.Errorf("widening produced %v", got[2])
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
	s.ScanAt(math.MaxUint64, func(id RowID, tp value.Tuple) bool { seen++; return true })
	if seen != 10 {
		t.Errorf("Scan visited %d", seen)
	}
	// Early stop.
	seen = 0
	s.ScanAt(math.MaxUint64, func(id RowID, tp value.Tuple) bool { seen++; return seen < 3 })
	if seen != 3 {
		t.Errorf("early-stop Scan visited %d", seen)
	}
	if got := len(currentTuples(loaded(t, s.Schema(), s.Image()))); got != 10 {
		t.Errorf("the image holds %d tuples", got)
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
	id2, _ := s.Insert(emp(2, "somebody with a much longer name", 1))
	if tracked != s.MemSize() {
		t.Errorf("after second insert: mem %d tracked %d", s.MemSize(), tracked)
	}
	remove(s, id)
	remove(s, id2)
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
					remove(s, id)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.ScanAt(math.MaxUint64, func(RowID, value.Tuple) bool { return true })
			_ = s.Image()
		}
	}()
	wg.Wait()
	// 4 writers * 200 inserts, a third deleted.
	want := 4 * (200 - 67)
	if s.Len() != want {
		t.Errorf("Len = %d, want %d", s.Len(), want)
	}
}
