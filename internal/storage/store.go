// Package storage provides the main-memory storage structures a
// One-Fragment Manager builds on (paper §2.5: "(various) storage
// structures", "markings and cursor maintenance"): an in-memory heap of
// tuples addressed by row id, hash and ordered (skip-list) secondary
// indexes, marking sets, stable cursors, and an encoded page file that
// models disk-resident data for the main-memory-vs-disk experiment.
package storage

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/value"
)

// RowID addresses a tuple within one Store. Ids are never reused: a slot
// freed by Delete carries a bumped generation, so stale ids (e.g. held by
// an open Cursor) miss instead of aliasing a newer tuple. The low 40 bits
// are the slot index, the high bits the generation.
type RowID int64

const rowIndexBits = 40

func makeRowID(slot int, gen int64) RowID {
	return RowID(gen<<rowIndexBits | int64(slot))
}

// Slot returns the slot index: the row a column image of the store keeps
// the version in.
func (id RowID) Slot() int  { return int(int64(id) & (1<<rowIndexBits - 1)) }
func (id RowID) gen() int64 { return int64(id) >> rowIndexBits }

// MemChangeFunc observes the store's approximate memory footprint deltas;
// the OFM wires it to its processing element's 16 MB budget.
type MemChangeFunc func(delta int64)

// slot holds one tuple version. MVCC visibility is a pair of commit
// timestamps: begin is the commit that created the version (0 = present
// since load, visible to every snapshot), end is the commit that deleted
// it (0 = still current). A version is visible at snapshot ts iff
// begin <= ts && (end == 0 || end > ts). A slot with tuple == nil is
// free; a slot with end != 0 is a dead version kept for old snapshots
// until Vacuum reclaims it.
type slot struct {
	tuple value.Tuple // nil = free slot
	gen   int64
	begin uint64
	end   uint64
}

func (sl *slot) visibleAt(ts uint64) bool {
	return sl.begin <= ts && (sl.end == 0 || sl.end > ts)
}

// Store is a main-memory multiset of tuples with secondary indexes.
// All methods are safe for concurrent use.
type Store struct {
	schema *value.Schema

	mu      sync.RWMutex
	rows    []slot
	free    []int   // reusable free slot indexes
	count   int     // current versions (end == 0)
	dead    []int32 // slots of dead versions awaiting Vacuum, in deletion order
	version uint64  // bumped by every mutation; column caches key on it
	memSize int64
	onMem   MemChangeFunc

	// The dirty-slot log (see dirty.go): while a column cache tracks the
	// store, every mutator records the slot it touched so the cache can
	// catch up in O(slots changed).
	tracking  bool
	dirtyLost bool
	dirty     []int32

	hashIdx    map[string]*HashIndex
	orderedIdx map[string]*OrderedIndex
	markings   map[string]map[RowID]struct{}
}

// NewStore creates an empty store for the given schema.
func NewStore(schema *value.Schema) *Store {
	return &Store{
		schema:     schema,
		hashIdx:    map[string]*HashIndex{},
		orderedIdx: map[string]*OrderedIndex{},
		markings:   map[string]map[RowID]struct{}{},
	}
}

// OnMemChange registers the memory accounting hook (nil to disable).
func (s *Store) OnMemChange(fn MemChangeFunc) {
	s.mu.Lock()
	s.onMem = fn
	s.mu.Unlock()
}

// Schema returns the store's tuple schema.
func (s *Store) Schema() *value.Schema { return s.schema }

// Len returns the number of live tuples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// MemSize returns the approximate in-memory footprint in bytes.
func (s *Store) MemSize() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.memSize
}

// Conform validates t against schema, widening ints into float columns
// in place. It is the type check every ingest path shares.
func Conform(schema *value.Schema, t value.Tuple) error {
	if len(t) != schema.Len() {
		return fmt.Errorf("storage: tuple arity %d does not match schema %s", len(t), schema)
	}
	for i, v := range t {
		want := schema.Column(i).Kind
		if v.IsNull() || v.Kind() == want {
			continue
		}
		// Ints are accepted into float columns (widening).
		if want == value.KindFloat && v.Kind() == value.KindInt {
			t[i] = value.NewFloat(v.Float())
			continue
		}
		return fmt.Errorf("storage: column %s got %s", schema.Column(i).Name, v.Kind())
	}
	return nil
}

// Insert adds a tuple visible to every snapshot (begin timestamp 0) and
// returns its row id. Load and bootstrap paths use it; transactional
// writers use InsertVersion to stamp their commit timestamp.
func (s *Store) Insert(t value.Tuple) (RowID, error) {
	return s.InsertVersion(t, 0)
}

// InsertVersion adds a tuple version whose begin timestamp is the commit
// timestamp ts; snapshots at or after ts see it.
func (s *Store) InsertVersion(t value.Tuple, ts uint64) (RowID, error) {
	if err := Conform(s.schema, t); err != nil {
		return -1, err
	}
	s.mu.Lock()
	var id RowID
	if n := len(s.free); n > 0 {
		si := s.free[n-1]
		s.free = s.free[:n-1]
		s.rows[si].tuple = t
		s.rows[si].begin = ts
		s.rows[si].end = 0
		id = makeRowID(si, s.rows[si].gen)
	} else {
		id = makeRowID(len(s.rows), 0)
		s.rows = append(s.rows, slot{tuple: t, begin: ts})
	}
	s.noteDirty(int32(id.Slot()))
	s.count++
	s.version++
	delta := int64(t.Size())
	s.memSize += delta
	for _, idx := range s.hashIdx {
		idx.add(id, t)
	}
	for _, idx := range s.orderedIdx {
		idx.add(id, t)
	}
	onMem := s.onMem
	s.mu.Unlock()
	if onMem != nil {
		onMem(delta)
	}
	return id, nil
}

// InsertBatch adds many tuples (one lock acquisition).
func (s *Store) InsertBatch(ts []value.Tuple) ([]RowID, error) {
	ids := make([]RowID, 0, len(ts))
	for _, t := range ts {
		id, err := s.Insert(t)
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// valid returns the slot index of a valid id (any version, current or
// dead), or -1. Caller holds a lock.
func (s *Store) valid(id RowID) int {
	si := id.Slot()
	if id < 0 || si >= len(s.rows) || s.rows[si].tuple == nil || s.rows[si].gen != id.gen() {
		return -1
	}
	return si
}

// live returns the slot index of a valid current (end == 0) id, or -1.
// Caller holds a lock.
func (s *Store) live(id RowID) int {
	si := s.valid(id)
	if si < 0 || s.rows[si].end != 0 {
		return -1
	}
	return si
}

// Get returns the current tuple at id (misses on dead versions).
func (s *Store) Get(id RowID) (value.Tuple, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	si := s.live(id)
	if si < 0 {
		return nil, false
	}
	return s.rows[si].tuple, true
}

// GetAt returns the version at id as seen by a snapshot at ts.
func (s *Store) GetAt(id RowID, ts uint64) (value.Tuple, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	si := s.valid(id)
	if si < 0 || !s.rows[si].visibleAt(ts) {
		return nil, false
	}
	return s.rows[si].tuple, true
}

// VersionTS returns the begin/end commit timestamps of the version at id
// (current or dead). Writers use it for first-committer-wins validation.
func (s *Store) VersionTS(id RowID) (begin, end uint64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	si := s.valid(id)
	if si < 0 {
		return 0, 0, false
	}
	return s.rows[si].begin, s.rows[si].end, true
}

// Delete physically removes the current version at id — the non-MVCC
// path (recovery replay, direct store use). Transactional deletes go
// through DeleteVersion so old snapshots keep seeing the tuple.
func (s *Store) Delete(id RowID) bool {
	s.mu.Lock()
	si := s.live(id)
	if si < 0 {
		s.mu.Unlock()
		return false
	}
	s.count--
	s.version++
	delta := s.freeSlot(si, id)
	// The slot was visible until now and may be reused at once: a tracking
	// cache cannot patch around that (see dirty.go).
	s.dirtyLost = true
	onMem := s.onMem
	s.mu.Unlock()
	if onMem != nil {
		onMem(delta)
	}
	return true
}

// freeSlot physically reclaims the version in slot si (row id `id`),
// detaching it from indexes and markings. Caller holds s.mu and has
// already adjusted count/dead; returns the memory delta.
func (s *Store) freeSlot(si int, id RowID) int64 {
	t := s.rows[si].tuple
	s.rows[si].tuple = nil
	s.rows[si].gen++ // invalidate outstanding ids for this slot
	s.rows[si].begin = 0
	s.rows[si].end = 0
	s.free = append(s.free, si)
	delta := -int64(t.Size())
	s.memSize += delta
	for _, idx := range s.hashIdx {
		idx.remove(id, t)
	}
	for _, idx := range s.orderedIdx {
		idx.remove(id, t)
	}
	for _, m := range s.markings {
		delete(m, id)
	}
	return delta
}

// DeleteVersion logically deletes the current version at id: its end
// timestamp is set to the commit timestamp ts, so snapshots before ts
// keep seeing it while snapshots at or after ts do not. The version
// stays in memory (and in the indexes — probes filter by visibility)
// until Vacuum passes ts.
func (s *Store) DeleteVersion(id RowID, ts uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	si := s.live(id)
	if si < 0 {
		return false
	}
	s.rows[si].end = ts
	s.noteDirty(^int32(si)) // stamps only: the tuple is untouched
	s.count--
	s.dead = append(s.dead, int32(si))
	s.version++
	for _, m := range s.markings {
		delete(m, id)
	}
	return true
}

// Vacuum physically reclaims dead versions no snapshot can see: those
// with end != 0 and end <= horizon. Returns the number reclaimed. A pass
// walks the dead-version list, not the store: its cost follows the number
// of dead versions, however large the fragment.
func (s *Store) Vacuum(horizon uint64) int {
	s.mu.Lock()
	// Partition the list in place: survivors keep their order at the front,
	// the reclaimable slots collect behind them.
	kept := 0
	for i, si := range s.dead {
		if s.rows[si].end > horizon {
			s.dead[i], s.dead[kept] = s.dead[kept], si
			kept++
		}
	}
	reclaim := s.dead[kept:]
	// Free in ascending slot order, as a walk over the store would, so the
	// free list — and with it the slot every later insert lands in — does
	// not depend on the order the versions died in.
	slices.Sort(reclaim)
	var delta int64
	for _, si := range reclaim {
		delta += s.freeSlot(int(si), makeRowID(int(si), s.rows[si].gen))
		s.noteDirty(si)
	}
	reclaimed := len(reclaim)
	s.dead = s.dead[:kept]
	if reclaimed > 0 {
		s.version++
	}
	onMem := s.onMem
	s.mu.Unlock()
	if onMem != nil && delta != 0 {
		onMem(delta)
	}
	return reclaimed
}

// DeadVersions returns how many dead versions await Vacuum.
func (s *Store) DeadVersions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.dead)
}

// Update replaces the tuple at id.
func (s *Store) Update(id RowID, t value.Tuple) error {
	if err := Conform(s.schema, t); err != nil {
		return err
	}
	s.mu.Lock()
	si := s.live(id)
	if si < 0 {
		s.mu.Unlock()
		return fmt.Errorf("storage: row %d does not exist", id)
	}
	old := s.rows[si].tuple
	s.rows[si].tuple = t
	s.dirtyLost = true // a visible row rewritten in place: no catch-up
	s.version++
	delta := int64(t.Size()) - int64(old.Size())
	s.memSize += delta
	for _, idx := range s.hashIdx {
		idx.remove(id, old)
		idx.add(id, t)
	}
	for _, idx := range s.orderedIdx {
		idx.remove(id, old)
		idx.add(id, t)
	}
	onMem := s.onMem
	s.mu.Unlock()
	if onMem != nil {
		onMem(delta)
	}
	return nil
}

// Scan calls fn for every current tuple until fn returns false. The lock
// is held for the duration; fn must not mutate the store (use a Cursor
// for interleaved mutation).
func (s *Store) Scan(fn func(RowID, value.Tuple) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range s.rows {
		t := s.rows[i].tuple
		if t == nil || s.rows[i].end != 0 {
			continue
		}
		if !fn(makeRowID(i, s.rows[i].gen), t) {
			return
		}
	}
}

// ScanAt calls fn for every tuple version visible to a snapshot at ts
// until fn returns false. Same locking contract as Scan.
func (s *Store) ScanAt(ts uint64, fn func(RowID, value.Tuple) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range s.rows {
		sl := &s.rows[i]
		if sl.tuple == nil || !sl.visibleAt(ts) {
			continue
		}
		if !fn(makeRowID(i, sl.gen), sl.tuple) {
			return
		}
	}
}

// Snapshot returns all current tuples (shared, treat as immutable).
func (s *Store) Snapshot() []value.Tuple {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]value.Tuple, 0, s.count)
	for i := range s.rows {
		if t := s.rows[i].tuple; t != nil && s.rows[i].end == 0 {
			out = append(out, t)
		}
	}
	return out
}

// Version returns the store's mutation counter. It changes whenever the
// set of versions changes (insert, delete, update, vacuum, clear), so a
// derived structure — e.g. the OFM's fragment column cache — built at one
// Version stays valid exactly until Version differs.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// SnapshotVersions returns every tuple version in the store — current and
// dead — with its begin/end commit timestamps, plus the mutation counter
// the snapshot was taken at, all under one consistent lock acquisition.
// A caller can reconstruct the view of ANY snapshot timestamp from it:
// version i is visible at ts iff begin[i] <= ts && (end[i] == 0 ||
// end[i] > ts). Tuples are shared — treat as immutable.
func (s *Store) SnapshotVersions() (tuples []value.Tuple, begin, end []uint64, version uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.count + len(s.dead)
	tuples = make([]value.Tuple, 0, n)
	begin = make([]uint64, 0, n)
	end = make([]uint64, 0, n)
	for i := range s.rows {
		sl := &s.rows[i]
		if sl.tuple == nil {
			continue
		}
		tuples = append(tuples, sl.tuple)
		begin = append(begin, sl.begin)
		end = append(end, sl.end)
	}
	return tuples, begin, end, s.version
}

// Clear removes everything, keeping indexes defined but empty.
func (s *Store) Clear() {
	s.mu.Lock()
	delta := -s.memSize
	s.rows = nil
	s.free = nil
	s.count = 0
	s.dead = nil
	s.dirtyLost = true
	s.version++
	s.memSize = 0
	for _, idx := range s.hashIdx {
		idx.clear()
	}
	for _, idx := range s.orderedIdx {
		idx.clear()
	}
	s.markings = map[string]map[RowID]struct{}{}
	onMem := s.onMem
	s.mu.Unlock()
	if onMem != nil {
		onMem(delta)
	}
}

// ---------- indexes ----------

// CreateHashIndex builds a hash index named name on the given columns,
// indexing existing rows. Equality lookups use it.
func (s *Store) CreateHashIndex(name string, cols []int) (*HashIndex, error) {
	if err := s.checkCols(cols); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.hashIdx[name]; dup {
		return nil, fmt.Errorf("storage: hash index %q exists", name)
	}
	if _, dup := s.orderedIdx[name]; dup {
		return nil, fmt.Errorf("storage: index %q exists", name)
	}
	idx := newHashIndex(&s.mu, cols)
	for i := range s.rows {
		if t := s.rows[i].tuple; t != nil {
			idx.add(makeRowID(i, s.rows[i].gen), t)
		}
	}
	s.hashIdx[name] = idx
	return idx, nil
}

// CreateOrderedIndex builds a skip-list index named name on the given
// columns. Range scans use it.
func (s *Store) CreateOrderedIndex(name string, cols []int) (*OrderedIndex, error) {
	if err := s.checkCols(cols); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.orderedIdx[name]; dup {
		return nil, fmt.Errorf("storage: ordered index %q exists", name)
	}
	if _, dup := s.hashIdx[name]; dup {
		return nil, fmt.Errorf("storage: index %q exists", name)
	}
	idx := newOrderedIndex(cols)
	for i := range s.rows {
		if t := s.rows[i].tuple; t != nil {
			idx.add(makeRowID(i, s.rows[i].gen), t)
		}
	}
	s.orderedIdx[name] = idx
	return idx, nil
}

func (s *Store) checkCols(cols []int) error {
	if len(cols) == 0 {
		return fmt.Errorf("storage: index needs at least one column")
	}
	for _, c := range cols {
		if c < 0 || c >= s.schema.Len() {
			return fmt.Errorf("storage: index column %d out of range for %s", c, s.schema)
		}
	}
	return nil
}

// HashIndexOn returns a hash index covering exactly cols, if one exists.
func (s *Store) HashIndexOn(cols []int) (*HashIndex, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, idx := range s.hashIdx {
		if equalInts(idx.cols, cols) {
			return idx, true
		}
	}
	return nil, false
}

// OrderedIndexOn returns an ordered index whose leading column is col.
func (s *Store) OrderedIndexOn(col int) (*OrderedIndex, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, idx := range s.orderedIdx {
		if idx.cols[0] == col {
			return idx, true
		}
	}
	return nil, false
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------- markings (paper §2.5) ----------

// Mark adds row ids to the named marking set.
func (s *Store) Mark(name string, ids ...RowID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.markings[name]
	if m == nil {
		m = map[RowID]struct{}{}
		s.markings[name] = m
	}
	for _, id := range ids {
		if s.live(id) >= 0 {
			m[id] = struct{}{}
		}
	}
}

// Unmark removes row ids from the named marking (all ids if none given).
func (s *Store) Unmark(name string, ids ...RowID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(ids) == 0 {
		delete(s.markings, name)
		return
	}
	if m := s.markings[name]; m != nil {
		for _, id := range ids {
			delete(m, id)
		}
	}
}

// Marked reports whether a row carries the named marking.
func (s *Store) Marked(name string, id RowID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.markings[name][id]
	return ok
}

// MarkedRows returns the live tuples carrying the named marking.
func (s *Store) MarkedRows(name string) []value.Tuple {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.markings[name]
	out := make([]value.Tuple, 0, len(m))
	for id := range m {
		if si := s.live(id); si >= 0 {
			out = append(out, s.rows[si].tuple)
		}
	}
	return out
}

// ---------- cursors (paper §2.5) ----------

// Cursor iterates the rows that existed when it was opened, tolerating
// concurrent mutation: deleted rows are skipped, inserts are not seen.
type Cursor struct {
	s   *Store
	ids []RowID
	pos int
}

// OpenCursor captures the current row-id set for stable iteration.
func (s *Store) OpenCursor() *Cursor {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]RowID, 0, s.count)
	for i := range s.rows {
		if s.rows[i].tuple != nil && s.rows[i].end == 0 {
			ids = append(ids, makeRowID(i, s.rows[i].gen))
		}
	}
	return &Cursor{s: s, ids: ids}
}

// Next returns the next surviving tuple; ok is false at the end.
func (c *Cursor) Next() (RowID, value.Tuple, bool) {
	for c.pos < len(c.ids) {
		id := c.ids[c.pos]
		c.pos++
		if t, ok := c.s.Get(id); ok {
			return id, t, true
		}
	}
	return -1, nil, false
}

// Remaining returns how many candidate ids are left (upper bound).
func (c *Cursor) Remaining() int { return len(c.ids) - c.pos }
