// Package storage provides the main-memory storage structures a
// One-Fragment Manager builds on (paper §2.5: "(various) storage
// structures"): a heap of MVCC tuple versions in slots, addressed by row
// id; hash indexes addressed by slot, with no heap object per row; the
// dirty-slot log a column cache follows the heap by; and an encoded page
// file that models disk-resident data for the main-memory-vs-disk
// experiment. A fragment is rebuilt in one pass: InsertBatch type-checks
// a batch, then inserts it under one lock, growing everything once.
//
// The heap holds no pointer for the collector to mark: versions live in
// the schema-typed row encoding (value.AppendRow: a NULL bitmap, then each
// non-NULL value by its column's kind, an INT as a varint, with no arity
// and no kind tags) in one append-only []byte slab per store, and a read
// returns a fresh decode. Slab bytes are never overwritten (a refilled
// slot appends; growth and Vacuum's compaction build a new array), so a
// slab captured under the lock is readable after it. A checkpoint image is
// the rows as they are (Image, LoadImage); the log and the wire get the
// self-describing tuple encoding (value.AppendTuple).
package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/value"
)

// RowID addresses a tuple within one Store. Ids are never reused: a slot
// freed by Vacuum carries a bumped generation, so a stale id
// misses instead of aliasing a newer tuple. The low 40 bits
// are the slot index, the high bits the generation.
type RowID int64

const rowIndexBits = 40

func makeRowID(slot int, gen uint32) RowID {
	return RowID(int64(gen)<<rowIndexBits | int64(slot))
}

// Slot returns the slot index: the row a column image of the store keeps
// the version in.
func (id RowID) Slot() int   { return int(int64(id) & (1<<rowIndexBits - 1)) }
func (id RowID) gen() uint32 { return uint32(int64(id) >> rowIndexBits) }

// MemChangeFunc observes the store's memory footprint deltas; the OFM
// wires it to its processing element's 16 MB budget.
type MemChangeFunc func(delta int64)

// slot holds one tuple version, its row (value.AppendRow) at slab[off :
// off+n], and no pointer. MVCC visibility is a pair of commit timestamps:
// begin is the commit that created the version (0 = present since load,
// visible to every snapshot), end is the commit that deleted it (0 =
// still current). A version is visible at snapshot ts iff begin <= ts &&
// (end == 0 || end > ts). A slot with off < 0 is free; a slot with end !=
// 0 is a dead version kept for old snapshots until Vacuum reclaims it.
type slot struct {
	off   int // -1 = free slot
	n     uint32
	gen   uint32
	begin uint64
	end   uint64
}

const slotBytes = 32 // a slot's footprint

func (sl *slot) visibleAt(ts uint64) bool {
	return sl.begin <= ts && (sl.end == 0 || sl.end > ts)
}

// Store is a main-memory multiset of tuples with secondary indexes.
// All methods are safe for concurrent use.
type Store struct {
	schema *value.Schema

	mu      sync.RWMutex
	rows    []slot
	slab    []byte  // the versions' rows, appended and never overwritten
	held    int     // the slab bytes held versions take; the rest await compaction
	free    []int   // reusable free slot indexes
	count   int     // current versions (end == 0)
	dead    []int32 // slots of dead versions awaiting Vacuum, in deletion order
	version uint64  // bumped by every mutation; column caches key on it
	memSize int64   // the held versions' bytes and slots, as last reported
	onMem   MemChangeFunc

	// The dirty-slot log (see dirty.go): while a column cache tracks the
	// store, every mutator records the slot it touched so the cache can
	// catch up in O(slots changed).
	tracking  bool
	dirtyLost bool
	dirty     []int32

	hashIdx []*HashIndex
}

// NewStore creates an empty store for the given schema.
func NewStore(schema *value.Schema) *Store {
	return &Store{schema: schema}
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

// MemSize returns what the store charges its memory hook: held versions' bytes and slots.
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

// InsertVersion adds a tuple version whose begin timestamp is the commit
// timestamp ts; snapshots at or after ts see it.
func (s *Store) InsertVersion(t value.Tuple, ts uint64) (RowID, error) {
	if err := Conform(s.schema, t); err != nil {
		return -1, err
	}
	s.mu.Lock()
	id := s.insertLocked(t, ts)
	s.unlock()
	return id, nil
}

// InsertBatch adds tuples visible to every snapshot under one lock,
// growing the rows, the slab and the indexes once. All are conformed
// before any is inserted, so a bad one leaves the store as it was.
func (s *Store) InsertBatch(ts []value.Tuple) error {
	var rows int
	for _, t := range ts {
		if err := Conform(s.schema, t); err != nil {
			return err
		}
		rows += value.RowLen(s.schema, t)
	}
	s.mu.Lock()
	s.rows = slices.Grow(s.rows, len(ts)-min(len(ts), len(s.free)))
	s.slab = slices.Grow(s.slab, rows)
	for _, idx := range s.hashIdx {
		idx.reserve(len(ts))
	}
	for _, t := range ts {
		s.insertLocked(t, 0)
	}
	s.unlock()
	return nil
}

// unlock releases s.mu after a mutation and reports the change in held bytes
// and slots (not freed bytes, which follow the compaction cycle) to the hook.
func (s *Store) unlock() {
	delta := int64(s.held) + int64(s.count+len(s.dead))*slotBytes - s.memSize
	s.memSize += delta
	onMem := s.onMem
	s.mu.Unlock()
	if onMem != nil && delta != 0 {
		onMem(delta)
	}
}

// encoded returns slot si's row, valid after the caller's lock.
func (s *Store) encoded(si int) []byte { sl := s.rows[si]; return s.slab[sl.off : sl.off+int(sl.n)] }

// decode returns a fresh decode of slot si's version.
func (s *Store) decode(si int) value.Tuple {
	t, _ := value.DecodeRow(nil, s.schema, s.encoded(si))
	return t
}

// insertLocked appends a conformed tuple version's row to the slab,
// places it in a free slot, or a new one, and indexes it. Caller holds
// s.mu.
func (s *Store) insertLocked(t value.Tuple, ts uint64) RowID {
	sl := slot{off: len(s.slab), begin: ts}
	s.slab = value.AppendRow(s.slab, s.schema, t)
	sl.n = uint32(len(s.slab) - sl.off)
	s.held += int(sl.n)
	var si int
	if n := len(s.free); n > 0 {
		// freeSlot left the slot zeroed but for its generation.
		si, s.free = s.free[n-1], s.free[:n-1]
		sl.gen = s.rows[si].gen
		s.rows[si] = sl
	} else {
		si = len(s.rows)
		s.rows = append(s.rows, sl)
	}
	s.noteDirty(int32(si))
	s.count++
	s.version++
	for _, idx := range s.hashIdx {
		idx.add(si, t)
	}
	return makeRowID(si, s.rows[si].gen)
}

// valid returns the slot index of a valid id (any version, current or
// dead), or -1. Caller holds a lock.
func (s *Store) valid(id RowID) int {
	si := id.Slot()
	if id < 0 || si >= len(s.rows) || s.rows[si].off < 0 || s.rows[si].gen != id.gen() {
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

// GetAt appends to dst a fresh decode of the version at id seen at ts
// (nil dst: a tuple of the version's own size).
func (s *Store) GetAt(dst value.Tuple, id RowID, ts uint64) (value.Tuple, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	si := s.valid(id)
	if si < 0 || !s.rows[si].visibleAt(ts) {
		return dst, false
	}
	t, _ := value.DecodeRow(dst, s.schema, s.encoded(si))
	return t, true
}

// EncodedAt keeps, in place, the ids of ids whose version a snapshot at ts
// sees and appends to offs where each kept version's row starts in slab,
// all under one lock acquisition. The slab is the store's own, to decode
// with no lock held (value.NewBatchFromRows), as SnapshotSlots's is.
func (s *Store) EncodedAt(ts uint64, ids []RowID, offs []int) (slab []byte, kept []RowID, _ []int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	kept = ids[:0]
	for _, id := range ids {
		if si := s.valid(id); si >= 0 && s.rows[si].visibleAt(ts) {
			kept, offs = append(kept, id), append(offs, s.rows[si].off)
		}
	}
	return s.slab, kept, offs
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

// freeSlot physically reclaims the version in slot si, detaching it from
// the indexes, and compacts the slab if its bytes tip it. Caller holds
// s.mu and has already adjusted count/dead.
func (s *Store) freeSlot(si int) {
	t := s.decode(si)
	for _, idx := range s.hashIdx {
		idx.remove(si, t)
	}
	s.held -= int(s.rows[si].n)
	// A bumped generation invalidates outstanding ids for this slot.
	s.rows[si] = slot{off: -1, gen: s.rows[si].gen + 1}
	s.free = append(s.free, si)
	s.compact()
}

// compact copies the held versions into a new slab, in slot order, once
// the bytes of freed ones outweigh theirs. The old array is left as it is
// to the readers that captured it. Caller holds s.mu.
func (s *Store) compact() {
	if len(s.slab)-s.held > s.held {
		slab := make([]byte, 0, s.held)
		for i := range s.rows {
			if sl := &s.rows[i]; sl.off >= 0 {
				sl.off, slab = len(slab), append(slab, s.encoded(i)...)
			}
		}
		s.slab = slab
	}
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
	for _, si := range reclaim {
		s.freeSlot(int(si))
		s.noteDirty(si)
	}
	reclaimed := len(reclaim)
	s.dead = s.dead[:kept]
	if reclaimed > 0 {
		s.version++
	}
	s.unlock()
	return reclaimed
}

// DeadVersions returns how many dead versions await Vacuum.
func (s *Store) DeadVersions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.dead)
}

// FindCurrent returns the current version equal to t under
// value.EqualTuples in the lowest slot, the one a slot walk meets first,
// through a hash index — or by that walk in a store with none.
func (s *Store) FindCurrent(t value.Tuple) (RowID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	si := -1
	switch {
	case len(t) != s.schema.Len():
	case len(s.hashIdx) > 0:
		si = s.hashIdx[0].lowestEqual(t) // every index finds the same slot
	default:
		si = slices.IndexFunc(s.rows, func(sl slot) bool { return sl.off >= 0 && sl.end == 0 && value.RowEqual(s.schema, s.slab[sl.off:], t) })
	}
	if si < 0 {
		return -1, false
	}
	return makeRowID(si, s.rows[si].gen), true
}

// SlotIDs appends to dst the row id of the version in each of slots: how
// a column image of the store, whose row i is slot i, names the rows it
// selected.
func (s *Store) SlotIDs(dst []RowID, slots []int32) []RowID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, si := range slots {
		dst = append(dst, makeRowID(int(si), s.rows[si].gen))
	}
	return dst
}

// ScanAt calls fn with a fresh decode of every tuple version visible to a
// snapshot at ts until fn returns false. The lock is held for the
// duration; fn must not mutate the store.
func (s *Store) ScanAt(ts uint64, fn func(RowID, value.Tuple) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range s.rows {
		sl := &s.rows[i]
		if sl.off < 0 || !sl.visibleAt(ts) {
			continue
		}
		if !fn(makeRowID(i, sl.gen), s.decode(i)) {
			return
		}
	}
}

// Image returns a checkpoint image of the store: a uint32 count, then
// every current version's row, in slot order, copied from the slab.
func (s *Store) Image() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	img := binary.BigEndian.AppendUint32(make([]byte, 0, 4+s.held), uint32(s.count))
	for i := range s.rows {
		if s.rows[i].off >= 0 && s.rows[i].end == 0 {
			img = append(img, s.encoded(i)...)
		}
	}
	return img
}

// CheckImage returns the error LoadImage would refuse img with, or nil.
func (s *Store) CheckImage(img []byte) error { _, err := s.imageSlots(img); return err }

// imageSlots vets img, the count and then that many rows value.CheckRow
// passes, and returns a slot per row, its offset counted from the first.
// An empty img, no checkpoint, has none.
func (s *Store) imageSlots(img []byte) ([]slot, error) {
	if len(img) == 0 {
		return nil, nil
	}
	if len(img) < 4 {
		return nil, fmt.Errorf("storage: image of %d bytes has no row count", len(img))
	}
	n, body := int(binary.BigEndian.Uint32(img)), img[4:]
	// A row has a byte of NULL bitmap: a hostile count reserves no more.
	rows := make([]slot, 0, min(n, len(body)))
	off := 0
	for len(rows) < n {
		m, err := value.CheckRow(s.schema, body[off:])
		if err != nil {
			return nil, fmt.Errorf("storage: image row %d of %d: %w", len(rows), n, err)
		}
		rows = append(rows, slot{off: off, n: uint32(m)})
		off += m
	}
	if off != len(body) {
		return nil, fmt.Errorf("storage: image has %d bytes past its %d rows", len(body)-off, n)
	}
	return rows, nil
}

// LoadImage replaces the store's versions with img's rows, each current
// since load in the slot Image read it from, and returns how many there
// are. img is vetted whole first (CheckImage): one refused changes
// nothing. The rows are copied as they are; only the hash indexes decode.
func (s *Store) LoadImage(img []byte) (int, error) {
	rows, err := s.imageSlots(img)
	if err != nil {
		return 0, err
	}
	slab := append([]byte(nil), img[min(4, len(img)):]...)
	s.mu.Lock()
	s.clearLocked()
	for _, idx := range s.hashIdx {
		idx.reserve(len(rows))
	}
	s.rows, s.slab, s.held, s.count = rows, slab, len(slab), len(rows)
	var t value.Tuple
	for si := 0; si < len(rows) && len(s.hashIdx) > 0; si++ {
		t, _ = value.DecodeRow(t[:0], s.schema, s.encoded(si))
		for _, idx := range s.hashIdx {
			idx.add(si, t)
		}
	}
	s.unlock()
	return len(rows), nil
}

// Version returns the store's mutation counter. It changes whenever the
// set of versions changes (insert, delete, vacuum, clear), so a
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
// end[i] > ts). Each tuple is a fresh decode.
func (s *Store) SnapshotVersions() (tuples []value.Tuple, begin, end []uint64, version uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.count + len(s.dead)
	tuples = make([]value.Tuple, 0, n)
	begin = make([]uint64, 0, n)
	end = make([]uint64, 0, n)
	for i := range s.rows {
		sl := &s.rows[i]
		if sl.off < 0 {
			continue
		}
		tuples = append(tuples, s.decode(i))
		begin = append(begin, sl.begin)
		end = append(end, sl.end)
	}
	return tuples, begin, end, s.version
}

// Clear removes everything, keeping indexes defined but empty.
func (s *Store) Clear() { s.mu.Lock(); s.clearLocked(); s.unlock() }

func (s *Store) clearLocked() {
	s.rows, s.slab, s.held, s.free, s.count, s.dead = nil, nil, 0, nil, 0, nil
	s.dirtyLost = true
	s.version++
	for _, idx := range s.hashIdx {
		idx.clear()
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
	for _, idx := range s.hashIdx {
		if idx.name == name {
			return nil, fmt.Errorf("storage: hash index %q exists", name)
		}
	}
	idx := &HashIndex{s: s, name: name, cols: slices.Clone(cols), seq: make([]int, len(cols))}
	for i := range idx.seq {
		idx.seq[i] = i
	}
	idx.clear()
	for i := range s.rows {
		if s.rows[i].off >= 0 {
			idx.add(i, s.decode(i))
		}
	}
	s.hashIdx = append(s.hashIdx, idx)
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
