package storage

import (
	"math/rand"
	"sort"
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

	// Delete maintains the index.
	s.Delete(idA)
	if got := idx.Lookup([]value.Value{value.NewString("ann")}); len(got) != 1 || got[0] != idA2 {
		t.Errorf("after delete Lookup(ann) = %v", got)
	}
	// Update re-keys.
	if err := s.Update(idA2, emp(3, "carol", 30)); err != nil {
		t.Fatal(err)
	}
	if got := idx.Lookup([]value.Value{value.NewString("ann")}); len(got) != 0 {
		t.Errorf("after update Lookup(ann) = %v", got)
	}
	if got := idx.Lookup([]value.Value{value.NewString("carol")}); len(got) != 1 {
		t.Errorf("after update Lookup(carol) = %v", got)
	}
}

// TestHashIndexLookupAllocs: a point probe builds its key on the stack,
// so a hit allocates only the ids it returns and a miss nothing — also
// for a key longer than the stack buffer, which costs one spill.
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
		{"long string hit", byName, value.NewString(long), 1, 2},
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
	if _, err := s.CreateOrderedIndex("dup", []int{1}); err == nil {
		t.Error("name collision across index kinds should error")
	}
	if _, err := s.CreateOrderedIndex("ord", []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateHashIndex("ord", []int{0}); err == nil {
		t.Error("name collision across index kinds should error")
	}
}

func TestIndexDiscovery(t *testing.T) {
	s := NewStore(empSchema())
	if _, err := s.CreateHashIndex("h", []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateOrderedIndex("o", []int{2}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.HashIndexOn([]int{0, 1}); !ok {
		t.Error("HashIndexOn missed")
	}
	if _, ok := s.HashIndexOn([]int{0}); ok {
		t.Error("HashIndexOn matched a prefix; must be exact")
	}
	if _, ok := s.OrderedIndexOn(2); !ok {
		t.Error("OrderedIndexOn missed")
	}
	if _, ok := s.OrderedIndexOn(0); ok {
		t.Error("OrderedIndexOn false positive")
	}
}

func TestOrderedIndexRange(t *testing.T) {
	s := NewStore(empSchema())
	idx, err := s.CreateOrderedIndex("by_salary", []int{2})
	if err != nil {
		t.Fatal(err)
	}
	salaries := []float64{50, 10, 40, 20, 30}
	for i, sal := range salaries {
		if _, err := s.Insert(emp(int64(i), "e", sal)); err != nil {
			t.Fatal(err)
		}
	}
	var got []float64
	idx.Range(nil, nil, func(id RowID, key value.Tuple) bool {
		got = append(got, key[0].Float())
		return true
	})
	if !sort.Float64sAreSorted(got) || len(got) != 5 {
		t.Fatalf("full range = %v", got)
	}
	// Bounded range [20, 40].
	got = nil
	idx.Range(value.NewTuple(value.NewFloat(20)), value.NewTuple(value.NewFloat(40)),
		func(id RowID, key value.Tuple) bool {
			got = append(got, key[0].Float())
			return true
		})
	if len(got) != 3 || got[0] != 20 || got[2] != 40 {
		t.Errorf("range [20,40] = %v", got)
	}
	// Early stop.
	count := 0
	idx.Range(nil, nil, func(RowID, value.Tuple) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
	// Min/Max.
	if _, k, ok := idx.Min(); !ok || k[0].Float() != 10 {
		t.Errorf("Min = %v", k)
	}
	if _, k, ok := idx.Max(); !ok || k[0].Float() != 50 {
		t.Errorf("Max = %v", k)
	}
}

func TestOrderedIndexMaintenance(t *testing.T) {
	s := NewStore(empSchema())
	idx, err := s.CreateOrderedIndex("by_id", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	ids := map[int64]RowID{}
	live := map[int64]bool{}
	for i := 0; i < 2000; i++ {
		k := r.Int63n(500)
		if live[k] {
			s.Delete(ids[k])
			delete(live, k)
			delete(ids, k)
		} else {
			id, err := s.Insert(emp(k, "x", float64(k)))
			if err != nil {
				t.Fatal(err)
			}
			ids[k] = id
			live[k] = true
		}
	}
	if idx.Len() != len(live) {
		t.Fatalf("index has %d entries, store has %d live", idx.Len(), len(live))
	}
	var prev int64 = -1
	n := 0
	idx.Range(nil, nil, func(id RowID, key value.Tuple) bool {
		k := key[0].Int()
		if k < prev {
			t.Fatalf("out of order: %d after %d", k, prev)
		}
		if !live[k] {
			t.Fatalf("index holds dead key %d", k)
		}
		prev = k
		n++
		return true
	})
	if n != len(live) {
		t.Fatalf("range visited %d, want %d", n, len(live))
	}
}

func TestOrderedIndexEmpty(t *testing.T) {
	s := NewStore(empSchema())
	idx, err := s.CreateOrderedIndex("e", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := idx.Min(); ok {
		t.Error("Min on empty index")
	}
	if _, _, ok := idx.Max(); ok {
		t.Error("Max on empty index")
	}
	called := false
	idx.Range(nil, nil, func(RowID, value.Tuple) bool { called = true; return true })
	if called {
		t.Error("Range on empty index called fn")
	}
	// Removing a missing entry is a no-op.
	idx.remove(5, emp(1, "x", 1))
}

func TestOrderedIndexDuplicateKeys(t *testing.T) {
	s := NewStore(empSchema())
	idx, err := s.CreateOrderedIndex("by_name", []int{1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Insert(emp(1, "same", 1))
	b, _ := s.Insert(emp(2, "same", 2))
	n := 0
	idx.Range(nil, nil, func(RowID, value.Tuple) bool { n++; return true })
	if n != 2 {
		t.Fatalf("duplicate keys stored %d entries", n)
	}
	// Deleting one keeps the other.
	s.Delete(a)
	n = 0
	var last RowID
	idx.Range(nil, nil, func(id RowID, _ value.Tuple) bool { n++; last = id; return true })
	if n != 1 || last != b {
		t.Errorf("after delete: %d entries, last %d", n, last)
	}
}
