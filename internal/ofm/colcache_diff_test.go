package ofm

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/expr"
	"repro/internal/machine"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// The differential net for the delta-maintained column cache: whatever a
// schedule of committed inserts, updates, deletes, vacuums and aborts did
// to the store, a cache that followed it by catch-up must answer every
// batch scan exactly as a cache transposed from scratch does, and as the
// reference does (refScan: the store's tuples a row at a time through the
// expression interpreter), at every snapshot timestamp.

// scratchOFM returns an OFM over o's store whose column cache is always
// built from scratch: it has no GC horizon, so it never arms the store's
// dirty-slot log and never drains o's.
func scratchOFM(t *testing.T, o *OFM) *OFM {
	t.Helper()
	cfg := o.cfg
	cfg.Name, cfg.Horizon = o.cfg.Name+"/scratch", nil
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.store = o.store
	return s
}

// diffPreds: no predicate, a total filter (dense, visibility second), a
// total conjunction, and two filters that evaluate row expressions and so
// must never be shown a dead or free row (arithmetic that would divide by
// a stale zero, LIKE over a released string).
func diffPreds() []expr.Expr {
	col := func(n string) expr.Expr { return expr.NewCol(n) }
	num := func(n int64) expr.Expr { return expr.NewConst(value.NewInt(n)) }
	return []expr.Expr{
		nil,
		expr.NewCmp(expr.LT, col("salary"), num(300)),
		expr.NewAnd(
			expr.NewCmp(expr.GE, col("id"), num(10)),
			expr.NewOr(
				expr.NewCmp(expr.EQ, col("dept"), expr.NewConst(value.NewString("eng"))),
				expr.NewCmp(expr.GT, col("salary"), num(500)))),
		expr.NewCmp(expr.GT, expr.NewArith(expr.Div, num(100000), col("salary")), num(150)),
		expr.NewLike(col("dept"), "o%", false),
	}
}

// clonePred copies a predicate for one use (binding mutates it); nil stays
// nil.
func clonePred(p expr.Expr) expr.Expr {
	if p == nil {
		return nil
	}
	return expr.Clone(p)
}

// assertCacheMatches compares the patched cache of o with a scratch build
// and with the reference, for every predicate at every given timestamp.
func assertCacheMatches(t *testing.T, step int, o, scratch *OFM, stamps []uint64) {
	t.Helper()
	for _, ts := range stamps {
		view := View{TS: ts}
		for pi, p := range diffPreds() {
			want, err := refScan(o, view, p, nil)
			if err != nil {
				t.Fatalf("step %d ts %d pred %d: reference: %v", step, ts, pi, err)
			}
			scratch.cc = nil // next scan transposes the store as it is now
			for name, f := range map[string]*OFM{"patched": o, "scratch": scratch} {
				b, _, err := f.ScanBatch(view, clonePred(p), nil)
				if err != nil {
					t.Fatalf("step %d ts %d pred %d: %s batch scan: %v", step, ts, pi, name, err)
				}
				if got := b.Materialize(); !got.SameBag(want) {
					t.Fatalf("step %d ts %d pred %d: %s cache gives %d rows, reference %d",
						step, ts, pi, name, got.Len(), want.Len())
				}
			}
		}
	}
}

// loadPaid loads n rows with salary >= 1, so only a row that is not there
// (a hole's zero payload) can make the division predicate raise.
func loadPaid(t *testing.T, o *OFM, n int) {
	t.Helper()
	tuples := make([]value.Tuple, n)
	for i := range tuples {
		tuples[i] = emp(int64(i), []string{"eng", "ops", "hr"}[i%3], int64(10+i*10))
	}
	if err := o.Load(tuples); err != nil {
		t.Fatal(err)
	}
}

// diffSchedule drives one seeded schedule of committed writes, aborts and
// vacuums over o, stamping commits ts = 1, 2, ...
type diffSchedule struct {
	t       *testing.T
	o       *OFM
	mgr     *txn.Manager
	horizon *atomic.Uint64
	r       *rand.Rand
	ts      uint64
	nextID  int64
}

func (d *diffSchedule) commit(tx *txn.Txn) {
	d.ts++
	commitAt(d.t, d.o, tx, d.ts)
}

func (d *diffSchedule) idPred() expr.Expr {
	lo := d.r.Int63n(d.nextID)
	return expr.NewAnd(
		expr.NewCmp(expr.GE, expr.NewCol("id"), expr.NewConst(value.NewInt(lo))),
		expr.NewCmp(expr.LT, expr.NewCol("id"), expr.NewConst(value.NewInt(lo+1+d.r.Int63n(4)))))
}

func (d *diffSchedule) newRow() value.Tuple {
	id := d.nextID
	d.nextID++
	dept := value.NewString([]string{"eng", "ops", "hr", "opsec"}[d.r.Intn(4)])
	if d.r.Intn(9) == 0 {
		dept = value.Null // a column's first NULL publishes a null bitmap
	}
	return value.NewTuple(value.NewInt(id), dept, value.NewInt(1+d.r.Int63n(900)))
}

func (d *diffSchedule) step() {
	t, o := d.t, d.o
	tx := d.mgr.Begin()
	switch op := d.r.Intn(10); {
	case op < 3: // insert
		for n := 1 + d.r.Intn(3); n > 0; n-- {
			if err := o.InsertTx(tx.ID(), d.newRow()); err != nil {
				t.Fatal(err)
			}
		}
		d.commit(tx)
	case op < 6: // update
		set := map[int]expr.Expr{2: expr.NewConst(value.NewInt(1 + d.r.Int63n(900)))}
		if _, err := o.UpdateTx(tx.ID(), d.idPred(), set, Latest); err != nil {
			t.Fatal(err)
		}
		d.commit(tx)
	case op < 8: // delete
		if _, err := o.DeleteTx(tx.ID(), d.idPred(), Latest); err != nil {
			t.Fatal(err)
		}
		d.commit(tx)
	case op < 9: // abort: buffered writes never reach the store
		if err := o.InsertTx(tx.ID(), d.newRow()); err != nil {
			t.Fatal(err)
		}
		if _, err := o.DeleteTx(tx.ID(), d.idPred(), Latest); err != nil {
			t.Fatal(err)
		}
		if err := o.Abort(tx.ID()); err != nil {
			t.Fatal(err)
		}
		tx.Abort()
	default: // vacuum up to a horizon somewhere behind the clock
		tx.Abort()
		if h := d.horizon.Load() + uint64(d.r.Int63n(int64(d.ts-d.horizon.Load())+1)); h > d.horizon.Load() {
			d.horizon.Store(h)
		}
		o.Vacuum()
	}
}

// TestColumnCacheDifferential is the deterministic half: one scanner, so
// every step can be checked at old, middle and latest timestamps.
func TestColumnCacheDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		var horizon atomic.Uint64
		o, mgr := newMVCCOFM(t, &horizon)
		loadPaid(t, o, 40)
		scratch := scratchOFM(t, o)
		d := &diffSchedule{t: t, o: o, mgr: mgr, horizon: &horizon, r: rand.New(rand.NewSource(seed)), nextID: 40}
		assertCacheMatches(t, 0, o, scratch, []uint64{0, LatestTS})
		for step := 1; step <= 150; step++ {
			d.step()
			// Timestamps behind the horizon read a vacuumed store: no
			// longer a faithful snapshot, but the three readers must still
			// agree on what is left of it.
			assertCacheMatches(t, step, o, scratch, []uint64{0, d.ts / 2, horizon.Load(), d.ts, LatestTS})
		}
		st := o.CacheStats()
		if st.FullBuilds != 1 {
			t.Errorf("seed %d: %d full builds, want only the first", seed, st.FullBuilds)
		}
		if st.CatchUps == 0 || st.RowsFolded < st.CatchUps {
			t.Errorf("seed %d: implausible catch-up counters %+v", seed, st)
		}
		// The incrementally kept footprint equals a recount.
		recount := int64(o.cc.rows)*stampBytes + storage.DirtyLogBytes
		for _, vec := range o.cc.cols {
			recount += vecBytes(vec)
		}
		if o.cc.bytes != recount || o.CacheStats().ResidentBytes != recount {
			t.Errorf("seed %d: cache accounts %d bytes, a recount gives %d", seed, o.cc.bytes, recount)
		}
		if free := o.cc.rows - o.store.Len() - o.store.DeadVersions(); free < 0 {
			t.Errorf("seed %d: cache covers %d rows, store holds %d+%d", seed, o.cc.rows, o.store.Len(), o.store.DeadVersions())
		}
	}
}

// TestColumnCacheDifferentialConcurrent is the -race half: scanners pin
// snapshots through the transaction manager and hold their batches while
// a writer commits and a vacuum reclaims behind the real GC horizon.
// Every batch must equal the reference at its pinned timestamp, and must
// materialize to the same rows however long the scanner sat on it.
func TestColumnCacheDifferentialConcurrent(t *testing.T) {
	m, err := machine.New(machine.Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager()
	o, err := New(Config{Name: "cc#0", Schema: testSchema(), PE: m.PE(0), Kind: Transient,
		Horizon: mgr.Horizon})
	if err != nil {
		t.Fatal(err)
	}
	loadPaid(t, o, 300)

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	preds := diffPreds()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p := preds[(w+i)%len(preds)]
				ts, release := mgr.PinSnapshot()
				b, _, err := o.ScanBatch(View{TS: ts}, clonePred(p), nil)
				if err != nil {
					fail("scanner %d: batch scan at ts %d: %v", w, ts, err)
					release()
					return
				}
				first := b.Materialize()
				runtime.Gosched() // let commits and catch-ups run under the held batch
				want, err := refScan(o, View{TS: ts}, p, nil)
				if err != nil {
					fail("scanner %d: reference: %v", w, err)
				} else if again := b.Materialize(); !first.SameBag(want) || !again.SameBag(want) {
					fail("scanner %d ts %d: batch %d rows, again %d, reference %d",
						w, ts, first.Len(), again.Len(), want.Len())
				}
				release()
			}
		}(w)
	}
	wg.Add(1)
	go func() { // vacuum behind whatever the scanners still pin
		defer wg.Done()
		for !stop.Load() {
			o.Vacuum()
			runtime.Gosched()
		}
	}()

	r := rand.New(rand.NewSource(7))
	nextID := int64(300)
	for i := 0; i < 1500 && !stop.Load(); i++ {
		tx := mgr.Begin()
		tx.Enlist(o)
		lo := r.Int63n(nextID)
		pred := expr.NewAnd(
			expr.NewCmp(expr.GE, expr.NewCol("id"), expr.NewConst(value.NewInt(lo))),
			expr.NewCmp(expr.LT, expr.NewCol("id"), expr.NewConst(value.NewInt(lo+3))))
		var err error
		switch r.Intn(4) {
		case 0:
			err = o.InsertTx(tx.ID(), emp(nextID, "ops", 1+r.Int63n(900)))
			nextID++
		case 1:
			_, err = o.DeleteTx(tx.ID(), pred, Latest)
		default:
			set := map[int]expr.Expr{2: expr.NewConst(value.NewInt(1 + r.Int63n(900)))}
			_, err = o.UpdateTx(tx.ID(), pred, set, Latest)
		}
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			fail("writer: %v", err)
		}
		// A one-participant commit runs on this goroutine start to end:
		// on a busy host the whole storm would fit in one time slice and
		// no scanner would ever catch up with it.
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	// A writer that outruns the scanners by more than the log holds costs
	// a rebuild, legitimately; but most writes must have been folded.
	if st := o.CacheStats(); st.CatchUps == 0 {
		t.Errorf("cache counters after the storm: %+v; want catch-ups", st)
	}
}

// TestColumnCacheLostLogRebuilds: when the store cannot say what changed
// — more writes than the log holds, or Clear — the next scan transposes
// again, and answers correctly.
func TestColumnCacheLostLogRebuilds(t *testing.T) {
	var horizon atomic.Uint64
	o, mgr := newMVCCOFM(t, &horizon)
	load(t, o, 50)
	scanBatchLen(t, o, Latest)

	// One commit larger than the log.
	tx := mgr.Begin()
	for i := 0; i < 1100; i++ {
		if err := o.InsertTx(tx.ID(), emp(int64(1000+i), "bulk", 5)); err != nil {
			t.Fatal(err)
		}
	}
	commitAt(t, o, tx, 3)
	b, built, err := o.ScanBatch(Latest, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1150 {
		t.Errorf("scan after overflow = %d rows, want 1150", b.Len())
	}
	st := o.CacheStats()
	if st.FullBuilds != 2 || st.CatchUps != 0 || built != st.ResidentBytes {
		t.Errorf("after overflow: %+v, built %d; want a second full build", st, built)
	}

	// The rebuilt cache tracks again.
	tx = mgr.Begin()
	if err := o.InsertTx(tx.ID(), emp(5000, "one", 5)); err != nil {
		t.Fatal(err)
	}
	commitAt(t, o, tx, 4)
	if n := scanBatchLen(t, o, Latest); n != 1151 {
		t.Errorf("scan after the rebuild = %d rows, want 1151", n)
	}
	if st := o.CacheStats(); st.FullBuilds != 2 || st.CatchUps != 1 {
		t.Errorf("after a write on the rebuilt cache: %+v", st)
	}

	// Crash clears the store: no patch can express that.
	o.Crash()
	if n := scanBatchLen(t, o, Latest); n != 0 {
		t.Errorf("scan after Clear = %d rows, want 0", n)
	}
	if st := o.CacheStats(); st.FullBuilds != 3 {
		t.Errorf("after Clear: %+v; want a third full build", st)
	}
	if used := o.PE().MemUsed(); used != o.CacheStats().ResidentBytes {
		t.Errorf("PE holds %d bytes after Clear, the empty cache accounts for %d", used, o.CacheStats().ResidentBytes)
	}
}

// TestColumnCacheStandaloneRebuilds: an OFM with no GC horizon vacuums
// under its readers, so it must never patch in place: every write costs a
// fresh image, and a batch taken before the write keeps its rows.
func TestColumnCacheStandaloneRebuilds(t *testing.T) {
	o, _, mgr := newOFM(t)
	load(t, o, 30)
	old, _, err := o.ScanBatch(Latest, nil, nil)
	if err != nil || old == nil {
		t.Fatalf("first scan: %v, %v", old, err)
	}
	before := old.Materialize()

	// Delete ten rows (reclaimed at once: no horizon) and insert ten that
	// land in their slots.
	tx := mgr.Begin()
	pred := expr.NewCmp(expr.LT, expr.NewCol("id"), expr.NewConst(value.NewInt(10)))
	if _, err := o.DeleteTx(tx.ID(), pred, Latest); err != nil {
		t.Fatal(err)
	}
	commitAt(t, o, tx, 2)
	tx = mgr.Begin()
	for i := 0; i < 10; i++ {
		if err := o.InsertTx(tx.ID(), emp(int64(100+i), "new", 1)); err != nil {
			t.Fatal(err)
		}
	}
	commitAt(t, o, tx, 3)

	if n := scanBatchLen(t, o, Latest); n != 30 {
		t.Errorf("scan after delete+insert = %d rows, want 30", n)
	}
	if st := o.CacheStats(); st.FullBuilds != 2 || st.CatchUps != 0 {
		t.Errorf("standalone OFM: %+v; want rebuilds only", st)
	}
	if after := old.Materialize(); !after.SameBag(before) {
		t.Error("a batch taken before the writes changed under its holder")
	}
}

// TestScanAfterWriteAllocatesConstant: absorbing a committed write must
// not allocate in proportion to the fragment.
func TestScanAfterWriteAllocatesConstant(t *testing.T) {
	perScan := func(rows int) (mallocs, bytes uint64) {
		var horizon atomic.Uint64
		o, mgr := newMVCCOFM(t, &horizon)
		load(t, o, rows)
		pred := expr.NewCmp(expr.LT, expr.NewCol("salary"), expr.NewConst(value.NewInt(0)))
		scan := func() {
			b, _, err := o.ScanBatch(Latest, expr.Clone(pred), []int{0})
			if err != nil || b == nil {
				t.Fatalf("scan: %v, %v", b, err)
			}
			value.PutSel(b.Sel)
		}
		write := func(i int) {
			tx := mgr.Begin()
			at := expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(int64(i))))
			set := map[int]expr.Expr{2: expr.NewConst(value.NewInt(int64(1000 + i)))}
			if n, err := o.UpdateTx(tx.ID(), at, set, Latest); err != nil || n != 1 {
				t.Fatalf("update = %d, %v", n, err)
			}
			commitAt(t, o, tx, uint64(i+1))
		}
		// Warm up: build the cache, compile the filter, and let the first
		// appends take the cache past its exact-fit first allocation.
		scan()
		write(0)
		scan()
		const rounds = 50
		var ms runtime.MemStats
		for i := 1; i <= rounds; i++ {
			write(i)
			runtime.ReadMemStats(&ms)
			m0, b0 := ms.Mallocs, ms.TotalAlloc
			scan()
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - m0
			bytes += ms.TotalAlloc - b0
		}
		return mallocs / rounds, bytes / rounds
	}
	smallM, smallB := perScan(2000)
	largeM, largeB := perScan(40000)
	t.Logf("scan after write: %d allocs / %d B at 2k rows, %d allocs / %d B at 40k rows", smallM, smallB, largeM, largeB)
	if largeM > smallM+4 || largeM > 40 {
		t.Errorf("allocations per scan-after-write grew with the fragment: %d at 2k rows, %d at 40k", smallM, largeM)
	}
	if largeB > smallB+2048 || largeB > 8192 {
		t.Errorf("bytes per scan-after-write grew with the fragment: %d at 2k rows, %d at 40k", smallB, largeB)
	}
}
