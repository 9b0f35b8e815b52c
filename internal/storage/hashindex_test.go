package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/value"
)

// The differential harness below drives a store through a schedule of
// mutations and, after every step, holds each hash index against a
// reference map[string][]RowID keyed by the encoded key (AppendKeyOn) —
// the index's equality as the parent design spelled it — and FindCurrent
// against a walk over the current versions in slot order.

func idxSchema() *value.Schema {
	return value.MustSchema("f", "FLOAT", "s", "VARCHAR", "b", "BOOL")
}

var (
	long     = strings.Repeat("x", 200)
	longTwin = strings.Repeat("x", 199) + "y"
	// Stored values per column. INT 1 is widened into the FLOAT column
	// by Conform, so it lands as FLOAT 1.0.
	floatVals = []value.Value{value.Null, value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(math.NaN()), value.NewFloat(1), value.NewInt(1), value.NewFloat(2.5), value.NewFloat(-7)}
	strVals  = []value.Value{value.Null, value.NewString(""), value.NewString("a"), value.NewString("b"), value.NewString(long), value.NewString(longTwin)}
	boolVals = []value.Value{value.Null, value.NewBool(true), value.NewBool(false)}
	// Probe keys per column: the stored values plus kinds the column
	// never holds (INT 1 against FLOAT 1.0).
	probeVals = [][]value.Value{
		append(slices.Clone(floatVals), value.NewString("a")),
		append(slices.Clone(strVals), value.NewInt(0)),
		append(slices.Clone(boolVals), value.NewInt(1)),
	}
	// The indexes a schedule may create, in order.
	indexCols = [][]int{{0}, {1}, {2}, {0, 1}}
)

// model is the reference the store is held against.
type model struct {
	t       *testing.T
	s       *Store
	ts      uint64
	end     map[RowID]uint64 // every version in the store: its end stamp
	indexes []*HashIndex
	ref     []map[string][]RowID // per index: encoded key → ids
}

func newModel(t *testing.T) *model {
	return &model{t: t, s: NewStore(idxSchema()), end: map[RowID]uint64{}}
}

func keyOf(tp value.Tuple, cols []int) string { return string(tp.AppendKeyOn(nil, cols)) }

func (m *model) tuple(at *int, data []byte) value.Tuple {
	b := func() int {
		if *at >= len(data) {
			return 0
		}
		*at++
		return int(data[*at-1])
	}
	return value.NewTuple(floatVals[b()%len(floatVals)], strVals[b()%len(strVals)], boolVals[b()%len(boolVals)])
}

func (m *model) tupleAt(id RowID) value.Tuple { return m.s.decode(id.Slot()) }

func (m *model) added(id RowID) {
	m.end[id] = 0
	for i, ix := range m.indexes {
		k := keyOf(m.tupleAt(id), ix.cols)
		m.ref[i][k] = append(m.ref[i][k], id)
	}
}

// freed drops id from the reference; call before the store frees it.
func (m *model) freed(id RowID) {
	delete(m.end, id)
	for i, ix := range m.indexes {
		k := keyOf(m.tupleAt(id), ix.cols)
		ids := slices.DeleteFunc(m.ref[i][k], func(x RowID) bool { return x == id })
		if len(ids) == 0 {
			delete(m.ref[i], k)
		} else {
			m.ref[i][k] = ids
		}
	}
}

func (m *model) current() []RowID {
	var ids []RowID
	for id, end := range m.end {
		if end == 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

func (m *model) insert(tp value.Tuple, ts uint64) {
	id, err := m.s.InsertVersion(tp, ts)
	if err != nil {
		m.t.Fatal(err)
	}
	m.added(id)
}

func (m *model) insertBatch(tps []value.Tuple) {
	if err := m.s.InsertBatch(tps); err != nil {
		m.t.Fatal(err)
	}
	// The batch's ids are the versions the reference does not know yet.
	for si := range m.s.rows {
		if sl := &m.s.rows[si]; sl.off >= 0 {
			if id := makeRowID(si, sl.gen); !m.known(id) {
				m.added(id)
			}
		}
	}
}

func (m *model) known(id RowID) bool { _, ok := m.end[id]; return ok }

func (m *model) deleteVersion(id RowID) {
	m.ts++
	if !m.s.DeleteVersion(id, m.ts) {
		m.t.Fatalf("DeleteVersion(%v) refused a current version", id)
	}
	m.end[id] = m.ts
}

// delete frees the current version at id at once: it ends it at a
// fresh timestamp and vacuums up to it.
func (m *model) delete(id RowID) {
	m.deleteVersion(id)
	m.vacuum(m.ts)
}

func (m *model) vacuum(horizon uint64) {
	var gone []RowID
	for id, end := range m.end {
		if end != 0 && end <= horizon {
			gone = append(gone, id)
		}
	}
	for _, id := range gone {
		m.freed(id)
	}
	if n := m.s.Vacuum(horizon); n != len(gone) {
		m.t.Fatalf("Vacuum(%d) freed %d versions, want %d", horizon, n, len(gone))
	}
}

func (m *model) clear() {
	m.s.Clear()
	m.end = map[RowID]uint64{}
	for i := range m.ref {
		m.ref[i] = map[string][]RowID{}
	}
}

func (m *model) createIndex() {
	if len(m.indexes) == len(indexCols) {
		return
	}
	cols := indexCols[len(m.indexes)]
	ix, err := m.s.CreateHashIndex(fmt.Sprint("ix", len(m.indexes)), cols)
	if err != nil {
		m.t.Fatal(err)
	}
	m.indexes = append(m.indexes, ix)
	ref := map[string][]RowID{}
	for id := range m.end {
		k := keyOf(m.tupleAt(id), cols)
		ref[k] = append(ref[k], id)
	}
	m.ref = append(m.ref, ref)
}

// check holds every index against its reference and FindCurrent against
// a slot-order walk.
func (m *model) check(step string) {
	m.t.Helper()
	for i, ix := range m.indexes {
		if got, want := ix.Len(), len(m.ref[i]); got != want {
			m.t.Fatalf("%s: index %v holds %d keys, want %d", step, ix.cols, got, want)
		}
		keys := [][]value.Value{{}}
		for _, c := range ix.cols {
			var next [][]value.Value
			for _, k := range keys {
				for _, v := range probeVals[c] {
					next = append(next, append(slices.Clone(k), v))
				}
			}
			keys = next
		}
		for _, k := range keys {
			got := ix.Lookup(k)
			want := slices.Clone(m.ref[i][string(value.Tuple(k).AppendKeyOn(nil, ix.seq))])
			slices.Sort(want)
			sorted := slices.Clone(got)
			slices.Sort(sorted)
			if !slices.Equal(sorted, want) {
				m.t.Fatalf("%s: index %v Lookup(%v) = %v, want %v", step, ix.cols, k, got, want)
			}
		}
	}
	for _, probe := range m.probes() {
		var want RowID = -1
		m.s.ScanAt(math.MaxUint64, func(id RowID, tp value.Tuple) bool {
			if value.EqualTuples(tp, probe) {
				want = id
				return false
			}
			return true
		})
		got, ok := m.s.FindCurrent(probe)
		if !ok {
			got = -1
		}
		if got != want {
			m.t.Fatalf("%s: FindCurrent(%v) = %v, want %v", step, probe, got, want)
		}
	}
}

// probes are the tuples FindCurrent is asked for: a few that match
// nothing or match only across -0 and +0, and up to a dozen distinct
// current ones spread over the slots.
func (m *model) probes() []value.Tuple {
	out := []value.Tuple{
		value.NewTuple(value.NewFloat(0), value.NewString("a"), value.NewBool(true)),
		value.NewTuple(value.NewFloat(math.Copysign(0, -1)), value.NewString("a"), value.NewBool(true)),
		value.NewTuple(value.NewFloat(99), value.Null, value.Null),
		value.NewTuple(value.NewFloat(1)),
	}
	seen := map[string]bool{}
	var distinct []value.Tuple
	for _, id := range m.current() {
		if tp := m.tupleAt(id); !seen[tp.Key()] {
			seen[tp.Key()] = true
			distinct = append(distinct, tp)
		}
	}
	stride := len(distinct)/12 + 1
	for i := 0; i < len(distinct); i += stride {
		out = append(out, distinct[i])
	}
	return out
}

// maxVersions bounds a schedule's store, which keeps each step's check
// cheap enough for the fuzzer; it is well past the table's first growths.
const maxVersions = 512

// run interprets data as a schedule: each step an opcode byte and its
// arguments. An insert that would pass maxVersions clears the store.
func (m *model) run(data []byte) {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	for step := 0; at < len(data); step++ {
		op := next() % 9
		if op <= 3 && len(m.end) >= maxVersions-40 {
			m.clear()
		}
		switch op {
		case 0, 1:
			m.insert(m.tuple(&at, data), 0)
		case 2:
			m.ts++
			m.insert(m.tuple(&at, data), m.ts)
		case 3:
			n := next() % 40
			tps := make([]value.Tuple, n)
			for i := range tps {
				tps[i] = m.tuple(&at, data)
			}
			m.insertBatch(tps)
		case 4, 5:
			if cur := m.current(); len(cur) > 0 {
				id := cur[next()%len(cur)]
				if op == 4 {
					m.deleteVersion(id)
				} else {
					m.delete(id)
				}
			}
		case 6:
			m.vacuum(uint64(next()) % (m.ts + 1))
		case 7:
			if next()%4 == 0 {
				m.clear()
			}
		case 8:
			m.createIndex()
		}
		m.check(fmt.Sprintf("step %d (op %d)", step, op))
	}
}

// FuzzHashIndexMatchesMap: under any schedule of inserts, batch inserts,
// version ends, immediate frees, vacuums, clears and index builds over
// existing rows, every hash index answers every probe key — NULL, ±0,
// NaN, BOOL, INT 1 against FLOAT 1.0, empty and 200-byte strings, and
// two-column keys — exactly as the encoded-key map does, and FindCurrent
// finds the version a slot-order scan finds.
func FuzzHashIndexMatchesMap(f *testing.F) {
	for _, seed := range hashIndexSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		m := newModel(t)
		if len(data) > 0 && data[0]%2 == 0 {
			m.createIndex()
		}
		m.run(data)
	})
}

func hashIndexSeeds() [][]byte {
	r := rand.New(rand.NewSource(34))
	seeds := [][]byte{
		{8, 3, 39},                              // a 39-row batch into an index of 8 entries
		{0, 8, 0, 1, 2, 0, 1, 2, 5, 1, 0, 3, 4}, // a freed head slot, reused
	}
	for i := 0; i < 24; i++ {
		b := make([]byte, 64+r.Intn(512))
		r.Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

// TestHashIndexMatchesMap runs the fuzz target's seed schedules, then two
// table edges built on purpose: a run that wraps past the table's end
// losing its first entry, and a chain whose head slot is freed and
// refilled by another key.
func TestHashIndexMatchesMap(t *testing.T) {
	for i, seed := range hashIndexSeeds() {
		t.Run(fmt.Sprint("seed", i), func(t *testing.T) {
			m := newModel(t)
			m.createIndex()
			m.run(seed)
			m.createIndex()
			m.check("index over existing rows")
		})
	}

	t.Run("wrap", func(t *testing.T) {
		m := newModel(t)
		m.createIndex()
		m.createIndex() // on the string column
		ix := m.indexes[1]
		// Three keys homed at the last of the 8 entries fill it and wrap
		// to entries 0 and 1; a fourth homed at 0 lands behind them.
		var last []string
		var first string
		for i := 0; len(last) < 3 || first == ""; i++ {
			k := fmt.Sprint("k", i)
			switch ix.home(fingerprint(value.NewTuple(value.NewString(k)), ix.seq)) {
			case len(ix.table) - 1:
				if len(last) < 3 {
					last = append(last, k)
				}
			case 0:
				if first == "" {
					first = k
				}
			}
		}
		for _, k := range append(last, first) {
			m.insert(value.NewTuple(value.Null, value.NewString(k), value.Null), 0)
			m.check("insert " + k)
		}
		if len(ix.table) != 8 {
			t.Fatalf("table grew to %d entries; the wrap needs the first 8", len(ix.table))
		}
		for _, id := range m.current() {
			m.delete(id)
			m.check(fmt.Sprint("delete ", id))
		}
	})

	t.Run("freed head reused", func(t *testing.T) {
		m := newModel(t)
		m.createIndex()
		a := value.NewTuple(value.NewFloat(1), value.Null, value.Null)
		m.insert(a, 0)
		m.insert(slices.Clone(a), 0) // the key's head
		head := m.current()[1]
		m.delete(head)
		m.check("delete head")
		m.insert(value.NewTuple(value.NewFloat(2.5), value.Null, value.Null), 0)
		if reused := m.current()[1]; reused.Slot() != head.Slot() {
			t.Fatalf("the insert took slot %d, not the freed head's %d", reused.Slot(), head.Slot())
		}
		m.check("reuse head slot")
	})
}

// TestInsertBatchAllocs: a bulk insert into an indexed store allocates
// the same handful of times whatever its row count — the rows, the chains
// and the table grow once for the batch, and no row allocates.
func TestInsertBatchAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		tps := make([]value.Tuple, n)
		for i := range tps {
			tps[i] = emp(int64(i), "e", float64(i))
		}
		return testing.AllocsPerRun(20, func() {
			s := NewStore(empSchema())
			if _, err := s.CreateHashIndex("pk", []int{0}); err != nil {
				t.Fatal(err)
			}
			if err := s.InsertBatch(tps); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(100), allocs(10000)
	if big != small {
		t.Errorf("InsertBatch allocates %v times for 100 rows and %v for 10000: it grows with the row count", small, big)
	}
}

// TestFindCurrentDeletesByValue pins what recovery and replica apply
// delete: the current version equal to the tuple in the lowest slot, with
// an index and without, skipping dead versions, and nothing when no
// version matches.
func TestFindCurrentDeletesByValue(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		s := NewStore(empSchema())
		if indexed {
			if _, err := s.CreateHashIndex("pk", []int{0}); err != nil {
				t.Fatal(err)
			}
		}
		dead, _ := s.Insert(emp(1, "ann", 10))
		if !s.DeleteVersion(dead, 5) {
			t.Fatal("DeleteVersion refused")
		}
		low, _ := s.Insert(emp(1, "ann", 10))
		high, _ := s.Insert(emp(1, "ann", 10))
		s.Insert(emp(1, "bob", 10))
		if got, ok := s.FindCurrent(emp(1, "ann", 10)); !ok || got != low || !(low.Slot() < high.Slot()) {
			t.Errorf("indexed=%v: FindCurrent = %v, %v; want the lower of %v and %v", indexed, got, ok, low, high)
		}
		if got, ok := s.FindCurrent(emp(2, "ann", 10)); ok {
			t.Errorf("indexed=%v: FindCurrent of a missing tuple = %v", indexed, got)
		}
		if got, ok := s.FindCurrent(emp(1, "ann", 10)[:2]); ok {
			t.Errorf("indexed=%v: FindCurrent of a short tuple = %v", indexed, got)
		}
	}
}
