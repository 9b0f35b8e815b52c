package storage

import (
	"testing"

	"repro/internal/value"
)

func TestHashIndexBasics(t *testing.T) {
	s := NewStore(empSchema())
	idx, err := s.CreateHashIndex("by_name", []int{1})
	if err != nil {
		t.Fatal(err)
	}
	idA, _ := s.Insert(emp(1, "ann", 10))
	idB, _ := s.Insert(emp(2, "bob", 20))
	idA2, _ := s.Insert(emp(3, "ann", 30))

	got := idx.Lookup([]value.Value{value.NewString("ann")})
	if len(got) != 2 {
		t.Fatalf("Lookup(ann) = %v", got)
	}
	found := map[RowID]bool{}
	for _, id := range got {
		found[id] = true
	}
	if !found[idA] || !found[idA2] {
		t.Errorf("Lookup(ann) = %v, want {%d,%d}", got, idA, idA2)
	}
	if got := idx.Lookup([]value.Value{value.NewString("zed")}); len(got) != 0 {
		t.Errorf("Lookup(zed) = %v", got)
	}
	if got := idx.Lookup([]value.Value{}); got != nil {
		t.Errorf("arity-mismatched lookup = %v", got)
	}
	_ = idB

	// Freeing a version maintains the index.
	remove(s, idA)
	if got := idx.Lookup([]value.Value{value.NewString("ann")}); len(got) != 1 || got[0] != idA2 {
		t.Errorf("after delete Lookup(ann) = %v", got)
	}
}

// TestHashIndexLookupAllocs: a point probe hashes and compares the key's
// values in place, so a hit allocates only the ids it returns and a miss
// nothing — also for a long string key.
func TestHashIndexLookupAllocs(t *testing.T) {
	s := NewStore(empSchema())
	byID, err := s.CreateHashIndex("by_id", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	byName, err := s.CreateHashIndex("by_name", []int{1})
	if err != nil {
		t.Fatal(err)
	}
	long := string(make([]byte, 200))
	s.Insert(emp(1, "ann", 10))
	s.Insert(emp(2, long, 20))
	for _, tc := range []struct {
		name string
		ix   *HashIndex
		key  value.Value
		hits int
		want float64
	}{
		{"int hit", byID, value.NewInt(1), 1, 1},
		{"int miss", byID, value.NewInt(9), 0, 0},
		{"long string hit", byName, value.NewString(long), 1, 1},
	} {
		key := []value.Value{tc.key}
		if got := len(tc.ix.Lookup(key)); got != tc.hits {
			t.Fatalf("%s: %d ids, want %d", tc.name, got, tc.hits)
		}
		if n := testing.AllocsPerRun(100, func() { tc.ix.Lookup(key) }); n != tc.want {
			t.Errorf("%s: Lookup allocates %v times, want %v", tc.name, n, tc.want)
		}
	}
}

func TestHashIndexBuiltOverExistingRows(t *testing.T) {
	s := NewStore(empSchema())
	if _, err := s.Insert(emp(1, "ann", 10)); err != nil {
		t.Fatal(err)
	}
	idx, err := s.CreateHashIndex("by_id", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Lookup([]value.Value{value.NewInt(1)}); len(got) != 1 {
		t.Errorf("index over existing rows = %v", got)
	}
}

func TestIndexValidation(t *testing.T) {
	s := NewStore(empSchema())
	if _, err := s.CreateHashIndex("x", nil); err == nil {
		t.Error("empty column list should error")
	}
	if _, err := s.CreateHashIndex("x", []int{9}); err == nil {
		t.Error("out-of-range column should error")
	}
	if _, err := s.CreateHashIndex("dup", []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateHashIndex("dup", []int{1}); err == nil {
		t.Error("duplicate index name should error")
	}
}

func TestIndexDiscovery(t *testing.T) {
	s := NewStore(empSchema())
	if _, err := s.CreateHashIndex("h", []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.HashIndexOn([]int{0, 1}); !ok {
		t.Error("HashIndexOn missed")
	}
	if _, ok := s.HashIndexOn([]int{0}); ok {
		t.Error("HashIndexOn matched a prefix; must be exact")
	}
}
