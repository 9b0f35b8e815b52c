package ofm

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
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
// expression interpreter), at every snapshot timestamp. The filters compare
// salary with constants, so the cache bit-slices it, and the schedules move
// its values out of the sliced range in every way a catch-up must follow
// (foldSalary).

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
func assertCacheMatches(t *testing.T, step int, o, scratch *OFM, stamps []uint64, preds []expr.Expr) {
	t.Helper()
	for _, ts := range stamps {
		view := View{TS: ts}
		for pi, p := range preds {
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
					t.Fatalf("step %d ts %d pred %d (%s): %s cache gives %d rows, reference %d",
						step, ts, pi, p, name, got.Len(), want.Len())
				}
			}
		}
	}
}

// loadPaid loads n rows with salary in [1, 100], a 7-bit slice, so only a
// row that is not there (a hole's zero payload) can make the division
// predicate raise.
func loadPaid(t *testing.T, o *OFM, n int) {
	t.Helper()
	tuples := make([]value.Tuple, n)
	for i := range tuples {
		tuples[i] = emp(int64(i), []string{"eng", "ops", "hr"}[i%3], int64(1+i*37%100))
	}
	if err := o.Load(tuples); err != nil {
		t.Fatal(err)
	}
}

// foldSalary draws a salary to write at stage 0–4 of a schedule: inside
// the loaded range; also past its top (the sidecar widens from 7 bits
// toward 16); also below its base, negative; also NULL, and back on a
// later write; and also beyond 16 bits, which drops the sidecar. Never 0:
// the division predicate must only raise on a hole.
func foldSalary(r *rand.Rand, stage int) value.Value {
	switch {
	case stage >= 4 && r.Intn(4) == 0:
		return value.NewInt(1<<20 + r.Int63n(1000))
	case stage >= 3 && r.Intn(5) == 0:
		return value.Null
	case stage >= 2 && r.Intn(4) == 0:
		return value.NewInt(-1 - r.Int63n(2000))
	case stage >= 1 && r.Intn(3) == 0:
		return value.NewInt(101 + r.Int63n(60000))
	}
	return value.NewInt(1 + r.Int63n(100))
}

// salaryPreds compares salary with constants below, at the edges of, inside
// and above [lo, hi], and at the ends of int64, under every operator and IN.
func salaryPreds(r *rand.Rand, lo, hi int64) []expr.Expr {
	consts := []int64{math.MinInt64, math.MaxInt64, lo - 1, lo, hi, hi + 1, lo + r.Int63n(hi-lo+1)}
	num := func() expr.Expr { return expr.NewConst(value.NewInt(consts[r.Intn(len(consts))])) }
	ops := []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
	var preds []expr.Expr
	for i := 0; i < 3; i++ {
		preds = append(preds, expr.NewCmp(ops[r.Intn(len(ops))], expr.NewCol("salary"), num()))
	}
	list := []value.Value{value.NewInt(consts[r.Intn(len(consts))]), value.NewInt(consts[r.Intn(len(consts))])}
	return append(preds, expr.NewIn(expr.NewCol("salary"), list, r.Intn(2) == 0))
}

// diffSchedule drives one seeded schedule of committed writes, aborts and
// vacuums over o, stamping commits ts = 1, 2, ...; stage picks foldSalary's.
type diffSchedule struct {
	t       *testing.T
	o       *OFM
	mgr     *txn.Manager
	horizon *atomic.Uint64
	r       *rand.Rand
	ts      uint64
	nextID  int64
	stage   int
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
	return value.NewTuple(value.NewInt(id), dept, foldSalary(d.r, d.stage))
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
		set := map[int]expr.Expr{2: expr.NewConst(foldSalary(d.r, d.stage))}
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
// every step can be checked at old, middle and latest timestamps, on
// fragments loaded with 63, 64 and 65 rows. Besides diffPreds, each step
// compares the sliced salary with constants around its sidecar's range of
// the moment, and checks the sidecar's bits against the column.
func TestColumnCacheDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		var horizon atomic.Uint64
		o, mgr := newMVCCOFM(t, &horizon)
		rows := 62 + int(seed)
		loadPaid(t, o, rows)
		scratch := scratchOFM(t, o)
		d := &diffSchedule{t: t, o: o, mgr: mgr, horizon: &horizon, r: rand.New(rand.NewSource(seed)), nextID: int64(rows)}
		assertCacheMatches(t, 0, o, scratch, []uint64{0, LatestTS}, diffPreds())
		var widened, negative, dropped bool
		for step := 1; step <= 150; step++ {
			d.stage = step / 30
			d.step()
			lo, hi := int64(1), int64(100)
			if s := o.cc.slices[2]; s != nil {
				lo, hi = s.Base, s.Base+1<<s.Width()-1
				widened, negative = widened || s.Width() >= 15, negative || s.Base < 0
			}
			dropped = o.cc.slices[2] == nil && o.cc.wide[2]
			// Timestamps behind the horizon read a vacuumed store: no
			// longer a faithful snapshot, but the three readers must still
			// agree on what is left of it.
			preds := append(diffPreds(), salaryPreds(d.r, lo, hi)...)
			assertCacheMatches(t, step, o, scratch, []uint64{0, d.ts / 2, horizon.Load(), d.ts, LatestTS}, preds)
			assertCurrentFromStamps(t, step, o.cc)
			assertSlicesFromColumns(t, step, o.cc)
		}
		if !widened || !negative || !dropped {
			t.Errorf("seed %d: the salary sidecar widened %v, went negative %v, was dropped %v; want all three", seed, widened, negative, dropped)
		}
		st := o.CacheStats()
		if st.FullBuilds != 1 {
			t.Errorf("seed %d: %d full builds, want only the first", seed, st.FullBuilds)
		}
		if st.CatchUps == 0 || st.RowsFolded < st.CatchUps {
			t.Errorf("seed %d: implausible catch-up counters %+v", seed, st)
		}
		// The incrementally kept footprint equals a recount, the sidecars'
		// slices of a word per 64 rows included.
		recount := int64(o.cc.rows)*stampBytes + 8*int64(len(o.cc.current)) + storage.DirtyLogBytes
		for _, vec := range o.cc.cols {
			recount += vecBytes(vec)
		}
		var sliced int64
		for _, s := range o.cc.slices {
			if s != nil {
				sliced += int64(s.Width()) * 8 * int64(len(o.cc.current))
			}
		}
		recount += sliced
		if st := o.CacheStats(); o.cc.bytes != recount || st.ResidentBytes != recount || st.SlicedBytes != sliced {
			t.Errorf("seed %d: cache accounts %d bytes (%d sliced), a recount gives %d (%d)", seed, o.cc.bytes, st.SlicedBytes, recount, sliced)
		}
		if free := o.cc.rows - o.store.Len() - o.store.DeadVersions(); free < 0 {
			t.Errorf("seed %d: cache covers %d rows, store holds %d+%d", seed, o.cc.rows, o.store.Len(), o.store.DeadVersions())
		}
	}
}

// raceScanners starts n scanners that, until stop, scan o with preds at
// snapshots pinned through mgr and hold each batch across a yield: it must
// equal the reference at its timestamp, and materialize to the same rows
// however long the scanner sat on it.
func raceScanners(o *OFM, mgr *txn.Manager, preds []expr.Expr, n int, stop *atomic.Bool, wg *sync.WaitGroup, fail func(string, ...any)) {
	for w := 0; w < n; w++ {
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
					fail("scanner %d ts %d %s: batch %d rows, again %d, reference %d",
						w, ts, p, first.Len(), again.Len(), want.Len())
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
}

// newRaceOFM is a transient OFM whose GC horizon is mgr's, loaded with n
// paid rows.
func newRaceOFM(t *testing.T, mgr *txn.Manager, n int) *OFM {
	t.Helper()
	m, err := machine.New(machine.Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{Name: "cc#0", Schema: testSchema(), PE: m.PE(0), Kind: Transient,
		Horizon: mgr.Horizon})
	if err != nil {
		t.Fatal(err)
	}
	loadPaid(t, o, n)
	return o
}

// fixedSalaryPreds compare salary with constants at the loaded range's
// edges, past them, at the ends of int64, and in an IN list.
func fixedSalaryPreds() []expr.Expr {
	num := func(n int64) expr.Expr { return expr.NewConst(value.NewInt(n)) }
	sal := expr.NewCol("salary")
	return []expr.Expr{
		expr.NewCmp(expr.LT, sal, num(50)),
		expr.NewCmp(expr.GE, sal, num(-5)),
		expr.NewCmp(expr.GT, sal, num(100)),
		expr.NewCmp(expr.LE, sal, num(math.MinInt64)),
		expr.NewCmp(expr.NE, sal, num(math.MaxInt64)),
		expr.NewIn(sal, []value.Value{value.NewInt(1), value.NewInt(60000), value.NewInt(-1)}, false),
	}
}

// TestColumnCacheDifferentialConcurrent is the -race half: scanners pin
// snapshots through the transaction manager and hold their batches while
// a writer commits and a vacuum reclaims behind the real GC horizon.
// Every batch must equal the reference at its pinned timestamp, and must
// materialize to the same rows however long the scanner sat on it. The
// writer folds salaries through foldSalary's stages, and from the start
// moves rows' salaries NULL → value → NULL, so slots the vacuum frees
// come back with their NULL bit flipped in bitmap words the scanners (IS
// NULL among their predicates) are reading.
func TestColumnCacheDifferentialConcurrent(t *testing.T) {
	mgr := txn.NewManager()
	o := newRaceOFM(t, mgr, 300)

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	preds := append(diffPreds(), fixedSalaryPreds()...)
	raceScanners(o, mgr, append(preds, expr.NewIsNull(expr.NewCol("salary"), false)), 3, &stop, &wg, fail)

	r := rand.New(rand.NewSource(7))
	nextID := int64(300)
	const writes = 1500
	commit := func(write func(tx *txn.Txn) error) {
		tx := mgr.Begin()
		tx.Enlist(o)
		err := write(tx)
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
	for i := 0; i < writes && !stop.Load(); i++ {
		lo := r.Int63n(nextID)
		pred := expr.NewAnd(
			expr.NewCmp(expr.GE, expr.NewCol("id"), expr.NewConst(value.NewInt(lo))),
			expr.NewCmp(expr.LT, expr.NewCol("id"), expr.NewConst(value.NewInt(lo+3))))
		update := func(v value.Value) func(tx *txn.Txn) error {
			return func(tx *txn.Txn) error {
				_, err := o.UpdateTx(tx.ID(), pred, map[int]expr.Expr{2: expr.NewConst(v)}, Latest)
				return err
			}
		}
		stage := i * 5 / writes
		switch r.Intn(5) {
		case 0:
			commit(func(tx *txn.Txn) error {
				nextID++
				return o.InsertTx(tx.ID(), value.NewTuple(value.NewInt(nextID-1), value.NewString("ops"), foldSalary(r, stage)))
			})
		case 1:
			commit(func(tx *txn.Txn) error {
				_, err := o.DeleteTx(tx.ID(), pred, Latest)
				return err
			})
		case 2:
			for _, v := range []value.Value{value.Null, value.NewInt(1 + r.Int63n(100)), value.Null} {
				commit(update(v))
			}
		default:
			commit(update(foldSalary(r, stage)))
		}
	}
	stop.Store(true)
	wg.Wait()
	// A writer that outruns the scanners by more than the log holds costs
	// a rebuild, legitimately; but most writes must have been folded.
	if st := o.CacheStats(); st.CatchUps == 0 {
		t.Errorf("cache counters after the storm: %+v; want catch-ups", st)
	}
}

// TestSlicedColumnRacesFold: scanners compare the sliced salary at pinned
// snapshots while a writer moves rows' salaries out of the sidecar's range
// and back — past its top, below its base, to NULL — so catch-ups re-slice
// the column, wider and from lower bases, between scans that read it
// under shared ccMu, and a vacuum frees the old versions; at the end one
// value beyond 16 bits drops the sidecar while they still scan.
func TestSlicedColumnRacesFold(t *testing.T) {
	mgr := txn.NewManager()
	o := newRaceOFM(t, mgr, 200)

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	raceScanners(o, mgr, fixedSalaryPreds(), 3, &stop, &wg, fail)

	r := rand.New(rand.NewSource(11))
	outward := []int64{150, -1, 300, -3, 700, -7, 1500, -15, 3000, -31, 6000, -63, 12000, -127, 24000, -255, 50000, -10000}
	const writes = 600
	ranges := map[[2]int64]bool{} // the sidecar's (base, width) after each write
	for i := 0; i < writes && !stop.Load(); i++ {
		v := value.NewInt(1 + r.Int63n(100))
		switch {
		case i == writes-1:
			v = value.NewInt(1 << 20)
		case i%3 == 0:
			v = value.NewInt(outward[i/3%len(outward)])
		case i%6 == 2:
			v = value.Null
		}
		tx := mgr.Begin()
		tx.Enlist(o)
		at := expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(r.Int63n(200))))
		if _, err := o.UpdateTx(tx.ID(), at, map[int]expr.Expr{2: expr.NewConst(v)}, Latest); err != nil {
			fail("writer: %v", err)
		} else if err := tx.Commit(); err != nil {
			fail("writer: %v", err)
		}
		o.ccMu.RLock()
		if o.cc != nil && o.cc.slices != nil && o.cc.slices[2] != nil {
			ranges[[2]int64{o.cc.slices[2].Base, int64(o.cc.slices[2].Width())}] = true
		}
		o.ccMu.RUnlock()
		runtime.Gosched()
	}
	for i := 0; i < 50 && !stop.Load(); i++ {
		runtime.Gosched() // the scanners run on over the dropped sidecar
	}
	stop.Store(true)
	wg.Wait()
	if _, _, err := o.ScanBatch(Latest, fixedSalaryPreds()[0], nil); err != nil { // folds the last write
		t.Fatal(err)
	}
	st := o.CacheStats()
	if dropped := o.cc.slices[2] == nil && o.cc.wide[2]; st.CatchUps == 0 || len(ranges) < 5 || !dropped {
		t.Errorf("after the storm: %+v, the sidecar took %d ranges, dropped %v; want catch-ups, at least 5 ranges, and dropped", st, len(ranges), dropped)
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

// assertSlicesFromColumns: every sidecar covers a word per 64 cached rows
// and holds, for every row some snapshot sees with a non-NULL value, that
// value's offset from its base.
func assertSlicesFromColumns(t *testing.T, step int, cc *colCache) {
	t.Helper()
	for c, s := range cc.slices {
		if s == nil {
			continue
		}
		vec := cc.cols[c]
		for k, sl := range s.Slice {
			if len(sl) != len(cc.current) {
				t.Fatalf("step %d column %d: slice %d has %d words, the cache %d", step, c, k, len(sl), len(cc.current))
			}
		}
		for i := 0; i < cc.rows; i++ {
			if cc.end[i]-1 < cc.begin[i] || vec.IsNull(i) {
				continue
			}
			d, where := s.Offset(vec.I[i])
			var got uint64
			for k, sl := range s.Slice {
				got |= (sl[i>>6] >> (i & 63) & 1) << k
			}
			if where != 0 || got != d {
				t.Fatalf("step %d column %d row %d: value %d, sidecar from %d over %d bits holds %d", step, c, i, vec.I[i], s.Base, s.Width(), got)
			}
		}
	}
}

// assertCurrentFromStamps: the current-rows mask the catch-up keeps is the
// one the stamps give.
func assertCurrentFromStamps(t *testing.T, step int, cc *colCache) {
	t.Helper()
	want := make([]uint64, expr.MaskWords(cc.rows))
	for i, end := range cc.end[:cc.rows] {
		if end == 0 {
			want[i>>6] |= 1 << (i & 63)
		}
	}
	if !slices.Equal(cc.current, want) {
		t.Fatalf("step %d: current mask %x, the stamps give %x", step, cc.current, want)
	}
}

// TestScanBatchVisibilityWordEdges: on fragments of 63, 64 and 65 rows
// whose deleted, and later freed, rows sit on mask word edges, scans at
// snapshots older than the newest stamp and in a transaction with pending
// deletes answer as the reference does; and 10 / id, which raises on the
// stale id 0 those rows keep, raises only at a snapshot that sees them.
func TestScanBatchVisibilityWordEdges(t *testing.T) {
	col := func(n string) expr.Expr { return expr.NewCol(n) }
	num := func(n int64) expr.Expr { return expr.NewConst(value.NewInt(n)) }
	idIs := func(id int64) expr.Expr { return expr.NewCmp(expr.EQ, col("id"), num(id)) }
	div := expr.NewCmp(expr.GT, expr.NewArith(expr.Div, num(10), col("id")), num(1))
	preds := []expr.Expr{nil, div,
		expr.NewOr(expr.NewNot(div), expr.NewLike(col("dept"), "e%", false)),
		expr.NewCmp(expr.LT, col("salary"), num(40))}
	for _, n := range []int{63, 64, 65} {
		var horizon atomic.Uint64
		horizon.Store(1)
		o, mgr := newMVCCOFM(t, &horizon)
		tuples := make([]value.Tuple, n)
		for i := range tuples {
			id := int64(i + 1)
			if i == 0 || i == 62 || i == 63 || i == 64 {
				id = 0 // a word edge, deleted below
			}
			tuples[i] = emp(id, []string{"eng", "ops"}[i%2], int64(i))
		}
		if err := o.Load(tuples); err != nil {
			t.Fatal(err)
		}
		write := func(ts uint64, do func(tx *txn.Txn) error) {
			tx := mgr.Begin()
			if err := do(tx); err != nil {
				t.Fatal(err)
			}
			commitAt(t, o, tx, ts)
		}
		write(10, func(tx *txn.Txn) error { _, err := o.DeleteTx(tx.ID(), idIs(0), Latest); return err })
		write(11, func(tx *txn.Txn) error {
			_, err := o.UpdateTx(tx.ID(), idIs(5), map[int]expr.Expr{2: num(999)}, Latest)
			return err
		})
		pending := mgr.Begin()
		defer pending.Abort()
		if _, err := o.DeleteTx(pending.ID(), expr.NewOr(idIs(2), idIs(34)), Latest); err != nil {
			t.Fatal(err)
		}
		own := func(ts uint64) View { return View{TS: ts, Tx: pending.ID()} }
		check := func(phase string, views ...View) {
			t.Helper()
			for _, v := range views {
				for pi, p := range preds {
					want, wantErr := refScan(o, v, p, nil)
					b, _, err := o.ScanBatch(v, clonePred(p), nil)
					switch {
					case (err == nil) != (wantErr == nil):
						t.Fatalf("%d rows %s view %+v pred %d: batch error %v, reference error %v", n, phase, v, pi, err, wantErr)
					case err != nil && v.TS >= 10:
						t.Fatalf("%d rows %s view %+v pred %d raised on a row deleted at ts 10: %v", n, phase, v, pi, err)
					case err == nil && !b.Materialize().SameBag(want):
						t.Fatalf("%d rows %s view %+v pred %d: batch %d rows, reference %d", n, phase, v, pi, b.Len(), want.Len())
					}
				}
			}
		}
		// Dead versions kept: ts 5 sees the zero ids, so the division raises
		// there on both sides; ts 10 is older than the update at 11, so its
		// mask comes from the stamps.
		check("before vacuum", View{TS: 5}, View{TS: 10}, Latest, own(10), own(LatestTS))
		// Free the deleted rows and the updated version, then fill a hole:
		// ts 20 is older than that insert.
		horizon.Store(20)
		o.Vacuum()
		write(21, func(tx *txn.Txn) error { return o.InsertTx(tx.ID(), emp(100, "eng", 1)) })
		check("after vacuum", View{TS: 20}, View{TS: 21}, Latest, own(20), own(LatestTS))
	}
}
