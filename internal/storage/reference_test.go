package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/value"
)

// refStore is the store as it was before versions moved into the slab:
// each version a value.Tuple held in its slot. It keeps the same slot
// discipline — LIFO free list, vacuum in ascending slot order, bumped
// generations, the bounded dirty-slot log — so a schedule run on both
// must give the same row ids, stamps and log entries, and the slab store
// must decode the same tuples.
type refStore struct {
	schema   *value.Schema
	rows     []refSlot
	free     []int
	count    int
	dead     []int32
	version  uint64
	tracking bool
	lost     bool
	dirty    []int32
}

type refSlot struct {
	tuple      value.Tuple // nil = free
	gen        uint32
	begin, end uint64
}

func (r *refStore) valid(id RowID) int {
	si := id.Slot()
	if id < 0 || si >= len(r.rows) || r.rows[si].tuple == nil || r.rows[si].gen != id.gen() {
		return -1
	}
	return si
}

func (r *refStore) live(id RowID) int {
	if si := r.valid(id); si >= 0 && r.rows[si].end == 0 {
		return si
	}
	return -1
}

func (r *refStore) note(e int32) {
	if !r.tracking || r.lost {
		return
	}
	if len(r.dirty) == dirtyLogCap {
		r.lost = true
		return
	}
	r.dirty = append(r.dirty, e)
}

func (r *refStore) insert(t value.Tuple, ts uint64) RowID {
	var si int
	if n := len(r.free); n > 0 {
		si, r.free = r.free[n-1], r.free[:n-1]
		r.rows[si].tuple, r.rows[si].begin = t, ts
	} else {
		si = len(r.rows)
		r.rows = append(r.rows, refSlot{tuple: t, begin: ts})
	}
	r.note(int32(si))
	r.count++
	r.version++
	return makeRowID(si, r.rows[si].gen)
}

func (r *refStore) freeSlot(si int) {
	r.rows[si] = refSlot{gen: r.rows[si].gen + 1}
	r.free = append(r.free, si)
}

func (r *refStore) deleteVersion(id RowID, ts uint64) bool {
	si := r.live(id)
	if si < 0 {
		return false
	}
	r.rows[si].end = ts
	r.note(^int32(si))
	r.count--
	r.dead = append(r.dead, int32(si))
	r.version++
	return true
}

func (r *refStore) vacuum(horizon uint64) int {
	var kept, reclaim []int32
	for _, si := range r.dead {
		if r.rows[si].end > horizon {
			kept = append(kept, si)
		} else {
			reclaim = append(reclaim, si)
		}
	}
	slices.Sort(reclaim)
	for _, si := range reclaim {
		r.freeSlot(int(si))
		r.note(si)
	}
	r.dead = kept
	if len(reclaim) > 0 {
		r.version++
	}
	return len(reclaim)
}

func (r *refStore) clear() {
	r.rows, r.free, r.count, r.dead = nil, nil, 0, nil
	r.lost = true
	r.version++
}

func (r *refStore) snapshotSlots(track bool) {
	if track {
		r.tracking, r.lost, r.dirty = true, false, r.dirty[:0]
	}
}

// drain is DrainDirty's answer, each entry's row as a tuple (nil: the
// slot is free) in place of its offset in the slab.
func (r *refStore) drain() ([]DirtySlot, []value.Tuple, int, uint64, bool) {
	if !r.tracking || r.lost {
		return nil, nil, 0, 0, false
	}
	var out []DirtySlot
	var tuples []value.Tuple
	for _, e := range r.dirty {
		d := DirtySlot{Slot: int(e)}
		if e < 0 {
			d.Slot, d.StampsOnly = int(^e), true
		}
		sl := r.rows[d.Slot]
		d.Begin, d.End = sl.begin, sl.end
		out, tuples = append(out, d), append(tuples, sl.tuple)
	}
	r.dirty = r.dirty[:0]
	return out, tuples, len(r.rows), r.version, true
}

// keyed is what an index on cols answers, by a walk: the held versions
// under the encoding of their key columns.
func (r *refStore) keyed(cols []int) map[string][]RowID {
	out := map[string][]RowID{}
	for si, sl := range r.rows {
		if sl.tuple != nil {
			k := string(sl.tuple.AppendKeyOn(nil, cols))
			out[k] = append(out[k], makeRowID(si, sl.gen))
		}
	}
	return out
}

func (r *refStore) findCurrent(t value.Tuple) (RowID, bool) {
	for si, sl := range r.rows {
		if sl.tuple != nil && sl.end == 0 && value.EqualTuples(sl.tuple, t) {
			return makeRowID(si, sl.gen), true
		}
	}
	return -1, false
}

func refSchema() *value.Schema {
	return value.MustSchema("i", "INT", "f", "FLOAT", "s", "VARCHAR", "b", "BOOL")
}

// Cells a differential tuple draws from, per column: NULLs, ±0, NaN, the
// int extremes, an INT into the FLOAT column (widened by Conform), empty
// and 200-byte strings.
var refCells = [][]value.Value{
	{value.Null, value.NewInt(0), value.NewInt(1), value.NewInt(-1), value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64), value.NewInt(7)},
	{value.Null, value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(math.NaN()), value.NewFloat(1), value.NewInt(1), value.NewFloat(2.5)},
	{value.Null, value.NewString(""), value.NewString("a"), value.NewString("b"), value.NewString(long), value.NewString(longTwin)},
	{value.Null, value.NewBool(true), value.NewBool(false)},
}

// refIndexes are the hash indexes a schedule builds, one at a time, over
// whatever rows the store holds by then: two of them on two columns.
var refIndexes = [][]int{{0}, {2}, {1, 2}, {0, 3}}

// differential drives a slab store and the reference through one seeded
// schedule and compares every read after every step.
type differential struct {
	t       *testing.T
	r       *rand.Rand
	s       *Store
	ref     *refStore
	tracked int64
	ts      uint64
	ids     []RowID // every id ever issued, stale ones included
	idx     []*HashIndex
	// held are slabs captured by earlier SnapshotSlots calls with the
	// encodings they held then: later steps must leave those bytes alone.
	held        []heldSlab
	compactions int
}

type heldSlab struct {
	slab []byte
	offs []int
	enc  [][]byte
}

func newDifferential(t *testing.T, seed int64) *differential {
	d := &differential{t: t, r: rand.New(rand.NewSource(seed)), s: NewStore(refSchema()), ref: &refStore{schema: refSchema()}}
	d.s.OnMemChange(func(delta int64) { d.tracked += delta })
	return d
}

func (d *differential) tuple() value.Tuple {
	t := make(value.Tuple, len(refCells))
	for c, cells := range refCells {
		t[c] = cells[d.r.Intn(len(cells))]
	}
	return t
}

// conformed returns a private copy of t as the store keeps it.
func (d *differential) conformed(t value.Tuple) value.Tuple {
	t = t.Clone()
	if err := Conform(d.ref.schema, t); err != nil {
		d.t.Fatal(err)
	}
	return t
}

func (d *differential) current() []RowID {
	var ids []RowID
	for si, sl := range d.ref.rows {
		if sl.tuple != nil && sl.end == 0 {
			ids = append(ids, makeRowID(si, sl.gen))
		}
	}
	return ids
}

func (d *differential) insert(ts uint64) {
	t := d.tuple()
	id, err := d.s.InsertVersion(t.Clone(), ts)
	if err != nil {
		d.t.Fatal(err)
	}
	if want := d.ref.insert(d.conformed(t), ts); id != want {
		d.t.Fatalf("InsertVersion gave %v, reference %v", id, want)
	}
	d.ids = append(d.ids, id)
}

// maxCurrent is about where a schedule holds its current versions.
const maxCurrent = 60

// step applies one random mutation and names it.
func (d *differential) step() string {
	cur := d.current()
	op := d.r.Intn(20)
	if len(cur) > maxCurrent && op < 5 {
		op = 12 // hold the store small, so that updates soon outweigh it
	}
	switch {
	case op < 3:
		d.insert(0)
		return "insert"
	case op < 4:
		d.ts++
		d.insert(d.ts)
		return "insert at ts"
	case op < 5:
		tps := make([]value.Tuple, d.r.Intn(40))
		for i := range tps {
			tps[i] = d.tuple()
		}
		if err := d.s.InsertBatch(slices.Clone(tps)); err != nil {
			d.t.Fatal(err)
		}
		for _, t := range tps {
			d.ids = append(d.ids, d.ref.insert(d.conformed(t), 0))
		}
		return "insert batch"
	case op < 12 && len(cur) > 0:
		// An update, as a commit applies one: end the old version, insert
		// the new image at the same timestamp.
		id := cur[d.r.Intn(len(cur))]
		d.ts++
		if got, want := d.s.DeleteVersion(id, d.ts), d.ref.deleteVersion(id, d.ts); got != want || !got {
			d.t.Fatalf("DeleteVersion(%v) = %v, reference %v", id, got, want)
		}
		d.insert(d.ts)
		return "update"
	case op < 13 && len(cur) > 0:
		id := cur[d.r.Intn(len(cur))]
		d.ts++
		if got, want := d.s.DeleteVersion(id, d.ts), d.ref.deleteVersion(id, d.ts); got != want {
			d.t.Fatalf("DeleteVersion(%v) = %v, reference %v", id, got, want)
		}
		return "delete version"
	case op < 17:
		before := d.slabLen()
		horizon := d.ts - uint64(d.r.Intn(int(d.ts)+1)/8)
		if got, want := d.s.Vacuum(horizon), d.ref.vacuum(horizon); got != want {
			d.t.Fatalf("Vacuum(%d) = %d, reference %d", horizon, got, want)
		}
		if d.slabLen() < before {
			d.compactions++
		}
		return "vacuum"
	case op < 18:
		if d.r.Intn(8) == 0 {
			d.s.Clear()
			d.ref.clear()
			return "clear"
		}
		slab, offs, _, _, _ := d.s.SnapshotSlots(true)
		d.ref.snapshotSlots(true)
		d.hold(slab, offs)
		return "arm the log"
	case op < 19 && len(d.idx) < len(refIndexes):
		cols := refIndexes[len(d.idx)]
		ix, err := d.s.CreateHashIndex(fmt.Sprint("ix", len(d.idx)), cols)
		if err != nil {
			d.t.Fatal(err)
		}
		d.idx = append(d.idx, ix)
		return "create index"
	}
	d.refuseForeign()
	return "foreign deletes"
}

// refuseForeign asks for deletes of ids no store issued: both must refuse.
func (d *differential) refuseForeign() {
	for _, id := range []RowID{-1, makeRowID(1<<20, 0)} {
		if d.s.DeleteVersion(id, d.ts) {
			d.t.Fatalf("a delete of %v succeeded", id)
		}
	}
}

func (d *differential) slabLen() int {
	slab, _, _, _, _ := d.s.SnapshotSlots(false)
	return len(slab)
}

// hold keeps a captured slab and the encodings it holds, up to a few.
func (d *differential) hold(slab []byte, offs []int) {
	h := heldSlab{slab: slab, offs: offs}
	for _, off := range offs {
		var enc []byte
		if off >= 0 {
			_, n := value.DecodeRow(nil, d.s.Schema(), slab[off:])
			enc = bytes.Clone(slab[off : off+n])
		}
		h.enc = append(h.enc, enc)
	}
	if d.held = append(d.held, h); len(d.held) > 6 {
		d.held = d.held[1:]
	}
}

// decodeRow decodes the row of schema at the head of row.
func decodeRow(schema *value.Schema, row []byte) value.Tuple {
	t, _ := value.DecodeRow(nil, schema, row)
	return t
}

func encode(t value.Tuple) []byte {
	if t == nil {
		return nil
	}
	return value.AppendTuple(nil, t)
}

func sameTuple(a, b value.Tuple) bool {
	return (a == nil) == (b == nil) && bytes.Equal(encode(a), encode(b))
}

// check compares every read of the two stores.
func (d *differential) check(step string) {
	t, s, ref := d.t, d.s, d.ref
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", step, fmt.Sprintf(format, args...))
	}
	if s.Len() != ref.count || s.DeadVersions() != len(ref.dead) || s.Version() != ref.version {
		fail("len/dead/version %d/%d/%d, reference %d/%d/%d", s.Len(), s.DeadVersions(), s.Version(), ref.count, len(ref.dead), ref.version)
	}

	// Timestamps: load-time, an old snapshot, the latest and past every stamp.
	stamps := []uint64{0, d.ts / 2, d.ts, math.MaxUint64}
	for _, ts := range stamps {
		for _, id := range d.ids {
			got, ok := s.GetAt(nil, id, ts)
			var want value.Tuple
			if si := ref.valid(id); si >= 0 && (&slot{begin: ref.rows[si].begin, end: ref.rows[si].end}).visibleAt(ts) {
				want = ref.rows[si].tuple
			}
			if ok != (want != nil) || !sameTuple(got, want) {
				fail("GetAt(%v, %d) = %v %v, reference %v", id, ts, got, ok, want)
			}
		}
		// EncodedAt keeps the ids GetAt finds, in order, and points at them.
		slab, kept, offs := s.EncodedAt(ts, slices.Clone(d.ids), nil)
		var k int
		for _, id := range d.ids {
			want, ok := s.GetAt(nil, id, ts)
			if !ok {
				continue
			}
			if k >= len(kept) || kept[k] != id || !sameTuple(decodeRow(s.Schema(), slab[offs[k]:]), want) {
				fail("EncodedAt at %d: kept %v, GetAt finds %v at position %d", ts, kept, id, k)
			}
			k++
		}
		if k != len(kept) || len(offs) != len(kept) {
			fail("EncodedAt at %d kept %d ids and %d offsets, GetAt finds %d", ts, len(kept), len(offs), k)
		}
		var gotIDs []RowID
		var got []value.Tuple
		s.ScanAt(ts, func(id RowID, tp value.Tuple) bool {
			gotIDs, got = append(gotIDs, id), append(got, tp)
			return true
		})
		i := 0
		for si, sl := range ref.rows {
			if sl.tuple == nil || !(&slot{begin: sl.begin, end: sl.end}).visibleAt(ts) {
				continue
			}
			if i >= len(got) || gotIDs[i] != makeRowID(si, sl.gen) || !sameTuple(got[i], sl.tuple) {
				fail("ScanAt(%d) row %d differs from the reference's slot %d", ts, i, si)
			}
			i++
		}
		if i != len(got) {
			fail("ScanAt(%d) visited %d versions, reference %d", ts, len(got), i)
		}
	}

	tuples, begin, end, version := s.SnapshotVersions()
	i := 0
	for _, sl := range ref.rows {
		if sl.tuple == nil {
			continue
		}
		if i >= len(tuples) || !sameTuple(tuples[i], sl.tuple) || begin[i] != sl.begin || end[i] != sl.end {
			fail("SnapshotVersions version %d differs", i)
		}
		i++
	}
	if i != len(tuples) || version != ref.version {
		fail("SnapshotVersions holds %d versions at %d, reference %d at %d", len(tuples), version, i, ref.version)
	}
	snap := s.Snapshot()
	cur := d.current()
	if len(snap) != len(cur) {
		fail("Snapshot holds %d tuples, %d are current", len(snap), len(cur))
	}
	for i, id := range cur {
		if !sameTuple(snap[i], ref.rows[id.Slot()].tuple) {
			fail("Snapshot tuple %d = %v, reference %v", i, snap[i], ref.rows[id.Slot()].tuple)
		}
	}

	slab, offs, begin, end, version := s.SnapshotSlots(false)
	if len(offs) != len(ref.rows) || version != ref.version {
		fail("SnapshotSlots covers %d slots at %d, reference %d at %d", len(offs), version, len(ref.rows), ref.version)
	}
	var refTuples []value.Tuple
	for si, sl := range ref.rows {
		var got value.Tuple
		if offs[si] >= 0 {
			got = decodeRow(ref.schema, slab[offs[si]:])
		}
		if !sameTuple(got, sl.tuple) || begin[si] != sl.begin || end[si] != sl.end {
			fail("SnapshotSlots slot %d = %v [%d, %d), reference %v [%d, %d)", si, got, begin[si], end[si], sl.tuple, sl.begin, sl.end)
		}
		refTuples = append(refTuples, sl.tuple)
	}
	if got, want := value.NewBatchFromRows(ref.schema, slab, offs), value.NewBatchFrom(ref.schema, refTuples); !reflect.DeepEqual(batchCells(got), batchCells(want)) {
		fail("the transposed slab differs from the transposed reference tuples")
	}
	held := 0
	for _, sl := range ref.rows {
		if sl.tuple != nil {
			held += len(value.AppendRow(nil, ref.schema, sl.tuple))
		}
	}
	if want := int64(held) + int64(ref.count+len(ref.dead))*slotBytes; s.MemSize() != want || d.tracked != want {
		fail("MemSize %d, reported %d; the held versions and slots take %d", s.MemSize(), d.tracked, want)
	}

	slab, got, slots, version, ok := s.DrainDirty(nil)
	want, wantTuples, wantSlots, wantVersion, wantOK := ref.drain()
	if ok != wantOK || ok && (slots != wantSlots || version != wantVersion || len(got) != len(want)) {
		fail("DrainDirty = %d entries, %d slots at %d, %v; reference %d, %d at %d, %v", len(got), slots, version, ok, len(want), wantSlots, wantVersion, wantOK)
	}
	for i := range want {
		g, w := got[i], want[i]
		var row value.Tuple
		if g.Off >= 0 {
			row = decodeRow(ref.schema, slab[g.Off:])
		}
		if g.Slot != w.Slot || g.StampsOnly != w.StampsOnly || g.Begin != w.Begin || g.End != w.End || !sameTuple(row, wantTuples[i]) {
			fail("DrainDirty entry %d = %+v holding %v, reference %+v holding %v", i, g, row, w, wantTuples[i])
		}
	}

	for _, ix := range d.idx {
		keyed := ref.keyed(ix.cols)
		for _, key := range d.keys(ix.cols) {
			got, want := ix.Lookup(key), keyed[string(value.Tuple(key).AppendKeyOn(nil, ix.seq))]
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				fail("index %v Lookup(%v) = %v, reference %v", ix.cols, key, got, want)
			}
		}
	}
	for _, probe := range d.probes() {
		got, ok := s.FindCurrent(probe)
		want, wantOK := ref.findCurrent(probe)
		if ok != wantOK || ok && got != want {
			fail("FindCurrent(%v) = %v %v, reference %v %v", probe, got, ok, want, wantOK)
		}
	}

	for _, h := range d.held {
		for si, off := range h.offs {
			if off >= 0 && !bytes.Equal(h.slab[off:off+len(h.enc[si])], h.enc[si]) {
				fail("slot %d's bytes in a captured slab were overwritten", si)
			}
		}
	}
}

func batchCells(b *value.Batch) [][]string {
	var out [][]string
	for _, v := range b.Cols {
		var col []string
		for i := 0; i < b.Rows; i++ {
			col = append(col, fmt.Sprintf("%v/%v", v.Value(i).Kind(), v.Value(i)))
		}
		out = append(out, append(col, fmt.Sprint(v.Kind, v.Ranged, v.Lo, v.Hi)))
	}
	return out
}

// keys are the probe keys of an index on cols: a sample of every cell
// combination, kinds the columns never hold among them.
func (d *differential) keys(cols []int) [][]value.Value {
	keys := [][]value.Value{{}}
	for _, c := range cols {
		var next [][]value.Value
		for _, k := range keys {
			for _, v := range append(slices.Clone(refCells[c]), value.NewString("a"), value.NewInt(2)) {
				next = append(next, append(slices.Clone(k), v))
			}
		}
		keys = next
	}
	return keys
}

// probes are FindCurrent's questions: some current tuples, their -0 and
// +0 twins, and a few random ones.
func (d *differential) probes() []value.Tuple {
	var out []value.Tuple
	for i, id := range d.current() {
		if i%7 == 0 {
			t := slices.Clone(d.ref.rows[id.Slot()].tuple)
			out = append(out, t)
			if f := t[1]; !f.IsNull() && f.Float() == 0 {
				out = append(out, slices.Concat(t[:1], value.Tuple{value.NewFloat(-f.Float())}, t[2:]))
			}
		}
	}
	for i := 0; i < 4; i++ {
		out = append(out, d.conformed(d.tuple()))
	}
	return append(out, value.Ints(1))
}

// TestStoreMatchesReference holds the slab store to the tuple store it
// replaced over seeded schedules of inserts, batch inserts, updates,
// version ends, vacuums with compaction, clears, index
// builds over existing rows and log re-arms: every read — GetAt and ScanAt
// at old and new timestamps, SnapshotVersions, Snapshot (the checkpoint
// image, decoded), SnapshotSlots (decoded and transposed), DrainDirty,
// Lookup, FindCurrent — and the memory charge
// after every step, and the bytes of slabs captured steps ago.
func TestStoreMatchesReference(t *testing.T) {
	compactions := 0
	for seed := int64(1); seed <= 4; seed++ {
		d := newDifferential(t, seed)
		for i := 0; i < 500; i++ {
			step := d.step()
			d.check(fmt.Sprintf("seed %d step %d (%s)", seed, i, step))
			if len(d.ids) > 300 {
				d.ids = d.ids[len(d.ids)-150:]
			}
		}
		compactions += d.compactions
	}
	if compactions == 0 {
		t.Error("no schedule compacted the slab")
	}
}

// TestImageMatchesEncodeTuples: the checkpoint image transcoded from the
// slab's rows is byte for byte value.EncodeTuples of the current versions
// in slot order, the format the log and its readers know, after every step
// of seeded schedules; with no dead version held it is sized exactly.
func TestImageMatchesEncodeTuples(t *testing.T) {
	for seed := int64(5); seed <= 8; seed++ {
		d := newDifferential(t, seed)
		for i := 0; i < 300; i++ {
			step := d.step()
			var cur []value.Tuple
			for _, id := range d.current() {
				cur = append(cur, d.ref.rows[id.Slot()].tuple)
			}
			img, want := d.s.Image(), value.EncodeTuples(cur)
			if !bytes.Equal(img, want) {
				t.Fatalf("seed %d step %d (%s): Image is %d bytes, EncodeTuples of the %d current versions %d, and they differ", seed, i, step, len(img), len(cur), len(want))
			}
			if len(d.ref.dead) == 0 && cap(img) != len(img) {
				t.Fatalf("seed %d step %d (%s): Image reserved %d bytes for %d", seed, i, step, cap(img), len(img))
			}
		}
	}
}

// TestSlotHoldsNoPointers: the rows and the slab are what a fragment
// holds per version, and neither may give the collector anything to
// scan.
func TestSlotHoldsNoPointers(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return true
		case reflect.Array:
			return pointerFree(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !pointerFree(typ.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	store := reflect.TypeOf(Store{})
	rows, _ := store.FieldByName("rows")
	slab, _ := store.FieldByName("slab")
	for _, typ := range []reflect.Type{rows.Type.Elem(), slab.Type.Elem()} {
		if !pointerFree(typ) {
			t.Errorf("%v can hold a pointer: every version would be marked on every collection", typ)
		}
	}
	if size := rows.Type.Elem().Size(); size != slotBytes {
		t.Errorf("a slot takes %d bytes, slotBytes says %d", size, slotBytes)
	}
}

// TestSlabReadersSurviveCompaction: readers pin a snapshot, capture the
// slab under the lock and decode from it after the lock is released —
// the whole image, as the column cache's transposition does, and probed
// versions — while a writer updates, vacuums behind the oldest pin and so
// compacts the slab underneath them. Every reader must see each key once,
// as some commit at or before its snapshot wrote it; under -race a write
// to bytes a reader decodes is a reported race.
func TestSlabReadersSurviveCompaction(t *testing.T) {
	const keys, updates, readers = 64, 3000, 3
	schema := value.MustSchema("k", "INT", "v", "INT", "pad", "VARCHAR")
	pad := func(k, v int64) string { return strings.Repeat(string(rune('a'+(k+v)%26)), int(k+v)%40) }
	row := func(k, v int64) value.Tuple {
		return value.NewTuple(value.NewInt(k), value.NewInt(v), value.NewString(pad(k, v)))
	}
	s := NewStore(schema)
	pk, err := s.CreateHashIndex("pk", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]value.Tuple, keys)
	for k := range initial {
		initial[k] = row(int64(k), 0)
	}
	if err := s.InsertBatch(initial); err != nil {
		t.Fatal(err)
	}

	var (
		pinMu     sync.Mutex
		pins      = map[uint64]int{}
		committed atomic.Uint64
		done      atomic.Bool
	)
	pin := func() uint64 {
		pinMu.Lock()
		defer pinMu.Unlock()
		ts := committed.Load()
		pins[ts]++
		return ts
	}
	unpin := func(ts uint64) {
		pinMu.Lock()
		defer pinMu.Unlock()
		if pins[ts]--; pins[ts] == 0 {
			delete(pins, ts)
		}
	}
	horizon := func() uint64 {
		pinMu.Lock()
		defer pinMu.Unlock()
		h := committed.Load()
		for ts := range pins {
			h = min(h, ts)
		}
		return h
	}
	check := func(k int64, tp value.Tuple, ts uint64) error {
		if tp[0].Int() != k || tp[1].Int() > int64(ts) || tp[2].Str() != pad(k, tp[1].Int()) {
			return fmt.Errorf("snapshot %d read %v for key %d", ts, tp, k)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for rounds := 0; !done.Load() || rounds == 0; rounds++ {
				ts := pin()
				slab, offs, begin, end, _ := s.SnapshotSlots(false)
				runtime.Gosched() // let the writer move on before the decode
				seen := make([]int, keys)
				for si, off := range offs {
					if off < 0 || begin[si] > ts || end[si] != 0 && end[si] <= ts {
						continue
					}
					tp := decodeRow(schema, slab[off:])
					k := tp[0].Int()
					seen[k]++
					if err := check(k, tp, ts); err != nil {
						errs <- err
						return
					}
				}
				if b := value.NewBatchFromRows(schema, slab, offs); b.Rows != len(offs) {
					errs <- fmt.Errorf("the captured slab does not transpose")
					return
				}
				for k, n := range seen {
					if n != 1 {
						errs <- fmt.Errorf("snapshot %d saw key %d %d times", ts, k, n)
						return
					}
				}
				k := int64(rounds % keys)
				found := 0
				for _, id := range pk.Lookup([]value.Value{value.NewInt(k)}) {
					if tp, ok := s.GetAt(nil, id, ts); ok {
						found++
						if err := check(k, tp, ts); err != nil {
							errs <- err
							return
						}
					}
				}
				if found != 1 {
					errs <- fmt.Errorf("snapshot %d probed key %d %d times", ts, k, found)
					return
				}
				unpin(ts)
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(42))
	compactions, last := 0, 0
	for ts := uint64(1); ts <= updates; ts++ {
		k := int64(rng.Intn(keys))
		var cur RowID = -1
		for _, id := range pk.Lookup([]value.Value{value.NewInt(k)}) {
			if _, end, ok := s.VersionTS(id); ok && end == 0 {
				cur = id
			}
		}
		if !s.DeleteVersion(cur, ts) {
			t.Fatalf("key %d has no current version", k)
		}
		if _, err := s.InsertVersion(row(k, int64(ts)), ts); err != nil {
			t.Fatal(err)
		}
		committed.Store(ts)
		if ts%16 == 0 {
			s.Vacuum(horizon())
			slab, _, _, _, _ := s.SnapshotSlots(false)
			if len(slab) < last {
				compactions++
			}
			last = len(slab)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if compactions == 0 {
		t.Error("the writer never compacted the slab")
	}
}
