package ofm

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/expr"
	"repro/internal/machine"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// newMVCCOFM builds a transient OFM with a controllable GC
// horizon, so commits stamp MVCC versions without the standalone eager
// vacuum reclaiming them out from under the snapshot tests.
func newMVCCOFM(t *testing.T, horizon *atomic.Uint64) (*OFM, *txn.Manager) {
	t.Helper()
	m, err := machine.New(machine.Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{
		Name:    "cc#0",
		Schema:  testSchema(),
		PE:      m.PE(0),
		Kind:    Transient,
		Horizon: func() uint64 { return horizon.Load() },
	})
	if err != nil {
		t.Fatal(err)
	}
	return o, txn.NewManager()
}

// commitAt applies a buffered write set with an explicit commit
// timestamp, the way the engine's commit clock would.
func commitAt(t *testing.T, o *OFM, tx *txn.Txn, ts uint64) {
	t.Helper()
	if err := o.Prepare(tx.ID()); err != nil {
		t.Fatal(err)
	}
	if err := o.Commit(tx.ID(), ts); err != nil {
		t.Fatal(err)
	}
	tx.Abort() // local txn bookkeeping; the OFM already committed
}

func scanBatchLen(t *testing.T, o *OFM, view View) int {
	t.Helper()
	b, _, err := o.ScanBatch(view, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b.Len()
}

// TestColumnCacheAbsorbsWrite pins the catch-up contract: the first batch
// scan builds the cache (reporting its bytes), repeated scans hit it for
// free, and a committed write is folded into the same cache by the next
// batch scan — reporting the few bytes it wrote, not the fragment's —
// with no second transposition.
func TestColumnCacheAbsorbsWrite(t *testing.T) {
	var horizon atomic.Uint64
	o, mgr := newMVCCOFM(t, &horizon)
	load(t, o, 200)

	b, full, err := o.ScanBatch(Latest, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b == nil || b.Len() != 200 {
		t.Fatalf("first batch scan = %v", b)
	}
	if full <= 0 {
		t.Error("first batch scan must report the cache build bytes")
	}
	if st := o.CacheStats(); st.FullBuilds != 1 || st.CatchUps != 0 || st.ResidentBytes != full {
		t.Fatalf("after the first scan: %+v, built %d", st, full)
	}
	usedBefore := o.PE().MemUsed()

	// A second scan is a hit: nothing written.
	if _, built, err := o.ScanBatch(Latest, nil, nil); err != nil || built != 0 {
		t.Fatalf("cache hit built %d bytes, err %v", built, err)
	}

	// A committed insert is absorbed: the next scan sees it, reports a
	// row's worth of bytes, and the cache was not rebuilt.
	tx := mgr.Begin()
	if err := o.InsertTx(tx.ID(), emp(1000, "new", 999)); err != nil {
		t.Fatal(err)
	}
	commitAt(t, o, tx, 5)
	b, built, err := o.ScanBatch(Latest, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 201 {
		t.Errorf("post-write batch scan = %d rows, want 201", b.Len())
	}
	if built <= 0 || built > full/20 {
		t.Errorf("post-write scan wrote %d bytes; want > 0 and far below the %d of a build", built, full)
	}
	st := o.CacheStats()
	if st.FullBuilds != 1 || st.CatchUps != 1 || st.RowsFolded != 1 {
		t.Errorf("after one absorbed write: %+v", st)
	}
	// The PE is charged for the row the cache grew by (plus the store's
	// own copy of the tuple), not for a second image.
	if grew := o.PE().MemUsed() - usedBefore; grew <= 0 || grew > full/20 {
		t.Errorf("PE memory grew by %d across one inserted row (build was %d)", grew, full)
	}

	// An update is a stamp change on the old version plus a new version.
	tx = mgr.Begin()
	pred := expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(7)))
	set := map[int]expr.Expr{2: expr.NewConst(value.NewInt(-1))}
	if n, err := o.UpdateTx(tx.ID(), pred, set, Latest); err != nil || n != 1 {
		t.Fatalf("update = %d, %v", n, err)
	}
	commitAt(t, o, tx, 6)
	neg := expr.NewCmp(expr.LT, expr.NewCol("salary"), expr.NewConst(value.NewInt(0)))
	b, built, err = o.ScanBatch(Latest, neg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 || built <= 0 {
		t.Errorf("scan after update: %d rows, built %d", b.Len(), built)
	}
	if st := o.CacheStats(); st.FullBuilds != 1 || st.CatchUps != 2 || st.RowsFolded != 3 {
		t.Errorf("after the update: %+v", st)
	}
}

// TestColumnCacheServesOldSnapshots proves one cache generation answers
// any snapshot: after a delete and an insert commit at ts=10, a scan at
// an older watermark still sees the pre-commit image — with no cache work
// between the two reads.
func TestColumnCacheServesOldSnapshots(t *testing.T) {
	var horizon atomic.Uint64
	horizon.Store(1) // pin GC below the commits so dead versions survive
	o, mgr := newMVCCOFM(t, &horizon)
	load(t, o, 10)

	tx := mgr.Begin()
	pred := expr.NewCmp(expr.LT, expr.NewCol("id"), expr.NewConst(value.NewInt(3)))
	if n, err := o.DeleteTx(tx.ID(), pred, Latest); err != nil || n != 3 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if err := o.InsertTx(tx.ID(), emp(100, "new", 999)); err != nil {
		t.Fatal(err)
	}
	commitAt(t, o, tx, 10)

	// New snapshot: 7 survivors + 1 insert.
	if n := scanBatchLen(t, o, View{TS: 15}); n != 8 {
		t.Errorf("scan at ts=15 = %d rows, want 8", n)
	}
	before := o.CacheStats()
	// Old snapshot, same cache: the 10 original rows.
	if n := scanBatchLen(t, o, View{TS: 5}); n != 10 {
		t.Errorf("scan at ts=5 = %d rows, want 10", n)
	}
	if o.CacheStats() != before {
		t.Error("old-snapshot scan touched the cache")
	}
	// Latest sees the post-commit image.
	if n := scanBatchLen(t, o, Latest); n != 8 {
		t.Errorf("scan at latest = %d rows, want 8", n)
	}
}

// TestColumnCacheVacuumLeavesReusableHoles: the cache keeps dead versions
// for the snapshots that can still see them; once the horizon passes and
// Vacuum frees their slots, the cached rows become holes no snapshot
// selects, and the next insert fills a hole in place instead of growing
// the cache — all without a rebuild.
func TestColumnCacheVacuumLeavesReusableHoles(t *testing.T) {
	var horizon atomic.Uint64
	horizon.Store(1)
	o, mgr := newMVCCOFM(t, &horizon)
	load(t, o, 10)
	scanBatchLen(t, o, Latest) // build

	tx := mgr.Begin()
	pred := expr.NewCmp(expr.LT, expr.NewCol("id"), expr.NewConst(value.NewInt(4)))
	if _, err := o.DeleteTx(tx.ID(), pred, Latest); err != nil {
		t.Fatal(err)
	}
	commitAt(t, o, tx, 10)

	// The cache carries every version, dead ones included, and still
	// serves the snapshot that sees them.
	if n := scanBatchLen(t, o, Latest); n != 6 {
		t.Fatalf("visible rows = %d, want 6", n)
	}
	if n := scanBatchLen(t, o, View{TS: 5}); n != 10 {
		t.Fatalf("rows at ts=5 = %d, want 10 (dead versions cached)", n)
	}
	if current := len(expr.AppendMaskRows(nil, o.cc.current, 0)); o.cc.rows != 10 || current != 6 {
		t.Fatalf("cache rows/current = %d/%d, want 10/6", o.cc.rows, current)
	}

	// Advance the horizon past the delete and vacuum: the slots become
	// holes, invisible at every timestamp.
	horizon.Store(20)
	if freed := o.Vacuum(); freed != 4 {
		t.Fatalf("vacuum freed %d, want 4", freed)
	}
	for _, v := range []View{Latest, {TS: 5}, {TS: 0}} {
		if n := scanBatchLen(t, o, v); n != 6 {
			t.Errorf("post-vacuum rows at ts=%d = %d, want 6", v.TS, n)
		}
	}
	if o.cc.rows != 10 {
		t.Errorf("post-vacuum cache rows = %d, want 10 (holes stay addressed)", o.cc.rows)
	}

	// Two inserts land in two of the holes.
	tx = mgr.Begin()
	if err := o.InsertTx(tx.ID(), emp(100, "new", 1), emp(101, "new", 2)); err != nil {
		t.Fatal(err)
	}
	commitAt(t, o, tx, 25)
	if n := scanBatchLen(t, o, Latest); n != 8 {
		t.Errorf("rows after refilling holes = %d, want 8", n)
	}
	if current := len(expr.AppendMaskRows(nil, o.cc.current, 0)); o.cc.rows != 10 || current != 8 {
		t.Errorf("cache rows/current = %d/%d, want 10/8 (holes reused in place)", o.cc.rows, current)
	}
	if st := o.CacheStats(); st.FullBuilds != 1 {
		t.Errorf("vacuum and reuse cost %d full builds, want the first one only", st.FullBuilds)
	}
	// Filling the remaining holes brings the dense path back.
	tx = mgr.Begin()
	if err := o.InsertTx(tx.ID(), emp(102, "new", 3), emp(103, "new", 4)); err != nil {
		t.Fatal(err)
	}
	commitAt(t, o, tx, 26)
	b, _, err := o.ScanBatch(Latest, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 10 || b.Sel != nil {
		t.Errorf("full fragment scan = %d rows, sel %v; want 10 rows dense", b.Len(), b.Sel)
	}
}

// TestColumnCacheDropsEmptiedNullBitmap: a column whose last NULL is
// overwritten and vacuumed away goes back to having no bitmap at the next
// catch-up, not at the next full build, so the kernels' NULL-free paths
// take it again; the bitmap's bytes go with it.
func TestColumnCacheDropsEmptiedNullBitmap(t *testing.T) {
	var horizon atomic.Uint64
	horizon.Store(1)
	o, mgr := newMVCCOFM(t, &horizon)
	load(t, o, 200)
	scanBatchLen(t, o, Latest) // build
	pred := expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(7)))
	for i, salary := range []value.Value{value.Null, value.NewInt(5)} {
		tx := mgr.Begin()
		if n, err := o.UpdateTx(tx.ID(), pred, map[int]expr.Expr{2: expr.NewConst(salary)}, Latest); err != nil || n != 1 {
			t.Fatalf("update to %v = %d, %v", salary, n, err)
		}
		commitAt(t, o, tx, uint64(5+i))
		scanBatchLen(t, o, Latest)
		if i == 0 && o.cc.cols[2].Null == nil {
			t.Fatal("after the update to NULL the salary column has no bitmap")
		}
	}
	horizon.Store(10)
	if freed := o.Vacuum(); freed != 2 {
		t.Fatalf("vacuum freed %d, want 2", freed)
	}
	if n := scanBatchLen(t, o, Latest); n != 200 {
		t.Fatalf("scan after vacuum = %d rows, want 200", n)
	}
	if null := o.cc.cols[2].Null; null != nil {
		t.Errorf("the salary column keeps a %d-word bitmap with no NULL left", len(null))
	}
	// The charge is what a build of these vectors and sidecars would charge.
	st := o.CacheStats()
	want := int64(o.cc.rows)*stampBytes + 8*int64(len(o.cc.current)) + storage.DirtyLogBytes + st.SlicedBytes
	for _, vec := range o.cc.cols {
		want += vecBytes(vec)
	}
	if st.FullBuilds != 1 || st.ResidentBytes != want {
		t.Errorf("after the catch-ups: %+v, want %d resident bytes and one build", st, want)
	}
}

// TestColumnCacheRangeWidensOnlyByValues: a catch-up widens an INT
// column's range by the values it writes and by nothing else — not by a
// NULL written over a value, nor by a freed row, though the transposition
// it copies from reads [0, 0] over a column it saw no value in.
func TestColumnCacheRangeWidensOnlyByValues(t *testing.T) {
	var horizon atomic.Uint64
	horizon.Store(1)
	o, mgr := newMVCCOFM(t, &horizon)
	tuples := make([]value.Tuple, 100)
	for i := range tuples {
		tuples[i] = emp(int64(i), "eng", int64(i+1))
	}
	if err := o.Load(tuples); err != nil {
		t.Fatal(err)
	}
	salaryRange := func(when string, lo, hi int64) {
		t.Helper()
		scanBatchLen(t, o, Latest)
		if gotLo, gotHi, ok := o.cc.cols[2].Range(); !ok || gotLo != lo || gotHi != hi {
			t.Errorf("%s: salary range [%d, %d] (%v), want [%d, %d]", when, gotLo, gotHi, ok, lo, hi)
		}
	}
	salaryRange("after the build", 1, 100)

	tx := mgr.Begin()
	if n, err := o.UpdateTx(tx.ID(), idIs(7), map[int]expr.Expr{2: expr.NewConst(value.Null)}, Latest); err != nil || n != 1 {
		t.Fatalf("update to NULL = %d, %v", n, err)
	}
	if n, err := o.DeleteTx(tx.ID(), idIs(8), Latest); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	commitAt(t, o, tx, 5)
	horizon.Store(10)
	if freed := o.Vacuum(); freed != 2 {
		t.Fatalf("vacuum freed %d, want 2", freed)
	}
	salaryRange("after a NULL and a freed row", 1, 100)

	tx = mgr.Begin()
	if n, err := o.UpdateTx(tx.ID(), idIs(9), map[int]expr.Expr{2: expr.NewConst(value.NewInt(500))}, Latest); err != nil || n != 1 {
		t.Fatalf("update to 500 = %d, %v", n, err)
	}
	commitAt(t, o, tx, 15)
	salaryRange("after writing 500", 1, 500)
	if st := o.CacheStats(); st.FullBuilds != 1 || st.CatchUps != 2 {
		t.Errorf("cache %+v: want one build and two catch-ups", st)
	}
}

// TestScanBatchNeverDeclines: the batch scan answers every view and
// predicate — on an OFM configured Compiled=false, for a transaction with
// pending writes here, for an equality the hash index answers — and the
// index answers without building the column cache.
func TestScanBatchNeverDeclines(t *testing.T) {
	oi, _, _ := newOFM(t)
	oi.cfg.Compiled = false
	load(t, oi, 10)
	if n := scanBatchLen(t, oi, Latest); n != 10 {
		t.Errorf("Compiled=false scan = %d rows, want 10", n)
	}
	// With no index on the column, the point path scans.
	if rel, err := oi.ProbeEq(Latest, 0, value.NewInt(3), nil); err != nil || rel.Len() != 1 {
		t.Errorf("ProbeEq without an index = %v, %v; want one row", rel, err)
	}

	var horizon atomic.Uint64
	o, mgr := newMVCCOFM(t, &horizon)
	load(t, o, 50)
	if _, err := o.Store().CreateHashIndex("by_id", []int{0}); err != nil {
		t.Fatal(err)
	}
	idIs := func(id int64) expr.Expr {
		return expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(id)))
	}
	tx := mgr.Begin()
	if err := o.InsertTx(tx.ID(), emp(100, "new", 1)); err != nil {
		t.Fatal(err)
	}
	if n, err := o.DeleteTx(tx.ID(), idIs(42), Latest); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	own := View{TS: LatestTS, Tx: tx.ID()}
	for _, c := range []struct {
		view View
		id   int64
		want int
	}{{Latest, 42, 1}, {Latest, 100, 0}, {own, 42, 0}, {own, 100, 1}} {
		if n := scan(t, o, c.view, idIs(c.id), nil).Len(); n != c.want {
			t.Errorf("probe of id %d in view %+v = %d rows, want %d", c.id, c.view, n, c.want)
		}
	}
	if st := o.CacheStats(); st.FullBuilds != 0 || st.ResidentBytes != 0 {
		t.Errorf("index probes built the column cache: %+v", st)
	}
	// The transaction's own view: 50 rows, one deleted, one inserted.
	if n := scanBatchLen(t, o, own); n != 50 {
		t.Errorf("overlay scan = %d rows, want 50", n)
	}
	tx.Abort()
}

// idIs is the predicate id = n, which the pk hash index answers.
func idIs(n int64) expr.Expr {
	return expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(n)))
}

// scanPreds is the predicate corpus of the fragment differentials, over
// the columns id, dept and salary: comparisons, connectives, a row-fallback
// kernel, equalities the hash index answers, alone and with a residual,
// one whose key only a pending insert holds, and a NULL key.
func scanPreds() []expr.Expr {
	return []expr.Expr{
		nil,
		expr.NewCmp(expr.LT, expr.NewCol("id"), expr.NewConst(value.NewInt(25))),
		expr.NewAnd(
			expr.NewCmp(expr.EQ, expr.NewCol("dept"), expr.NewConst(value.NewString("eng"))),
			expr.NewCmp(expr.GT, expr.NewCol("salary"), expr.NewConst(value.NewInt(100)))),
		expr.NewOr(
			expr.NewCmp(expr.LE, expr.NewCol("salary"), expr.NewConst(value.NewInt(50))),
			expr.NewCmp(expr.GE, expr.NewCol("salary"), expr.NewConst(value.NewInt(400)))),
		expr.NewLike(expr.NewCol("dept"), "e%", false), // row-fallback kernel inside the vec filter
		idIs(7), // the hash index answers
		expr.NewAnd(idIs(7), expr.NewCmp(expr.GT, expr.NewCol("salary"), expr.NewConst(value.NewInt(100)))),
		idIs(300), // only the pending insert holds the key
		expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.Null)),
	}
}

// TestScanBatchMatchesScan is the fragment-level differential: for a
// spread of views, predicates and projections the batch scan materializes
// to exactly what the reference (refScan) computes. The views include a
// transaction's with a pending insert, one's with a pending delete and
// one's with a pending update on the fragment, and one whose transaction
// wrote only to another fragment; the predicates are scanPreds.
func TestScanBatchMatchesScan(t *testing.T) {
	var horizon atomic.Uint64
	horizon.Store(1)
	o, mgr := newMVCCOFM(t, &horizon)
	load(t, o, 60)
	if _, err := o.Store().CreateHashIndex("by_id", []int{0}); err != nil {
		t.Fatal(err)
	}
	// Mix in MVCC churn so visibility selection is exercised too.
	tx := mgr.Begin()
	if _, err := o.DeleteTx(tx.ID(), expr.NewCmp(expr.GE, expr.NewCol("id"), expr.NewConst(value.NewInt(55))), Latest); err != nil {
		t.Fatal(err)
	}
	if err := o.InsertTx(tx.ID(), emp(200, "eng", 75)); err != nil {
		t.Fatal(err)
	}
	commitAt(t, o, tx, 10)

	inserting, deleting, updating, elsewhere := mgr.Begin(), mgr.Begin(), mgr.Begin(), mgr.Begin()
	defer func() {
		for _, tx := range []*txn.Txn{inserting, deleting, updating, elsewhere} {
			tx.Abort()
		}
	}()
	if err := o.InsertTx(inserting.ID(), emp(300, "ops", 450)); err != nil {
		t.Fatal(err)
	}
	if n, err := o.DeleteTx(deleting.ID(), idIs(7), Latest); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	set := map[int]expr.Expr{2: expr.NewConst(value.NewInt(777))}
	if n, err := o.UpdateTx(updating.ID(), idIs(7), set, Latest); err != nil || n != 1 {
		t.Fatalf("update = %d, %v", n, err)
	}
	other, _ := newMVCCOFM(t, &horizon)
	if err := other.InsertTx(elsewhere.ID(), emp(7, "eng", 1)); err != nil {
		t.Fatal(err)
	}

	preds := scanPreds()
	views := []View{Latest, {TS: 5}, {TS: 15},
		{TS: LatestTS, Tx: inserting.ID()}, {TS: 15, Tx: deleting.ID()},
		{TS: LatestTS, Tx: updating.ID()}, {TS: LatestTS, Tx: elsewhere.ID()}}
	for pi, p := range preds {
		for vi, v := range views {
			for _, cols := range [][]int{nil, {0}, {2, 0}} {
				want, err := refScan(o, v, p, cols)
				if err != nil {
					t.Fatal(err)
				}
				got := scan(t, o, v, clonePred(p), cols)
				if !got.SameBag(want) || got.Schema.String() != want.Schema.String() {
					t.Errorf("pred %d view %d cols %v: batch %d rows vs reference %d rows",
						pi, vi, cols, got.Len(), want.Len())
				}
			}
		}
	}
	// The executor's point path, Probe, agrees too.
	wellPaid := expr.NewCmp(expr.GT, expr.NewCol("salary"), expr.NewConst(value.NewInt(100)))
	for vi, v := range views {
		for _, key := range []int64{7, 300} {
			for _, rest := range []expr.Expr{nil, wellPaid} {
				want, err := refScan(o, v, expr.Conjoin([]expr.Expr{idIs(key), rest}), nil)
				if err != nil {
					t.Fatal(err)
				}
				b, err := o.Probe(v, 0, value.NewInt(key), rest)
				if err != nil {
					t.Fatal(err)
				}
				if got := b.Materialize(); !got.SameBag(want) {
					t.Errorf("Probe id %d rest %v view %d: %d rows vs reference %d", key, rest, vi, b.Len(), want.Len())
				}
			}
		}
	}
}

// TestVecFilterCacheBounded: the compiled filters a fragment keeps are
// keyed by predicate text, bound constants included, so 5 000 scans of
// salary < i must not leave 5 000 of them: at most vecCacheSize stay, and
// the most recent still hit. Scans that miss on one predicate together
// get one filter, and one compilation is charged for it.
func TestVecFilterCacheBounded(t *testing.T) {
	o, _, _ := newOFM(t)
	load(t, o, 100)
	below := func(n int) expr.Expr {
		return expr.NewCmp(expr.LT, expr.NewCol("salary"), expr.NewConst(value.NewInt(int64(n))))
	}
	for i := 0; i < 5000; i++ {
		if _, _, err := o.ScanBatch(Latest, below(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := o.vecCache.Len(); n > vecCacheSize {
		t.Errorf("%d compiled filters kept after 5000 predicates, want at most %d", n, vecCacheSize)
	}
	clock := o.PE().Clock()
	if _, _, err := o.ScanBatch(Latest, below(4999), nil); err != nil {
		t.Fatal(err)
	}
	hit := o.PE().Clock() - clock

	const scanners = 8
	filters := make([]*expr.VecFilter, scanners)
	var wg sync.WaitGroup
	start := make(chan struct{})
	clock = o.PE().Clock()
	for i := range filters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			f, err := o.compileVecFilter(below(-7))
			if err != nil {
				t.Error(err)
			}
			filters[i] = f
		}(i)
	}
	close(start)
	wg.Wait()
	for _, f := range filters[1:] {
		if f != filters[0] {
			t.Fatal("concurrent misses on one predicate compiled it more than once")
		}
	}
	if charged, want := o.PE().Clock()-clock, o.costs().CompileCost(); charged != want || hit >= want {
		t.Errorf("concurrent misses charged %v, want one compilation, %v (a hit charged %v)", charged, want, hit)
	}
}

// TestOnlyComparedColumnsAreSliced: a filter scan slices the INT columns
// its filter compares with a constant and no other — not one it compares
// with a column or reads under arithmetic, and none for an unfiltered
// scan — and the sidecars' bytes are charged to the PE, reported as built
// and counted apart in CacheStats.
func TestOnlyComparedColumnsAreSliced(t *testing.T) {
	var horizon atomic.Uint64
	o, _ := newMVCCOFM(t, &horizon)
	load(t, o, 200)
	scanBatchLen(t, o, Latest)
	if st := o.CacheStats(); st.SlicedBytes != 0 {
		t.Fatalf("an unfiltered scan sliced %d bytes", st.SlicedBytes)
	}
	used := o.PE().MemUsed()
	num := func(n int64) expr.Expr { return expr.NewConst(value.NewInt(n)) }
	pred := expr.NewAnd(
		expr.NewCmp(expr.GT, expr.NewCol("salary"), expr.NewCol("id")),
		expr.NewCmp(expr.GT, expr.NewArith(expr.Add, expr.NewCol("id"), num(1)), num(5)))
	if _, built, err := o.ScanBatch(Latest, pred, nil); err != nil || built != 0 {
		t.Fatalf("scan without a column-constant comparison built %d, err %v", built, err)
	}
	if st := o.CacheStats(); st.SlicedBytes != 0 {
		t.Fatalf("a filter with no column-constant comparison sliced %d bytes", st.SlicedBytes)
	}
	_, built, err := o.ScanBatch(Latest, expr.NewCmp(expr.LT, expr.NewCol("salary"), num(100)), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := o.CacheStats()
	// salary = 10·i for i < 200 spans 1990: 11 slices of 4 words.
	if want := int64(11 * 4 * 8); st.SlicedBytes != want || built != want || o.PE().MemUsed()-used != want {
		t.Errorf("slicing salary: %d bytes sliced, %d built, PE grew %d; want %d", st.SlicedBytes, built, o.PE().MemUsed()-used, want)
	}
	if o.cc.slices[0] != nil || o.cc.slices[2] == nil {
		t.Errorf("sliced columns: id %v, salary %v; want salary only", o.cc.slices[0] != nil, o.cc.slices[2] != nil)
	}
	if _, built, err := o.ScanBatch(Latest, expr.NewCmp(expr.GE, expr.NewCol("salary"), num(7)), nil); err != nil || built != 0 {
		t.Errorf("a second filter on the sliced column built %d, err %v; want a hit", built, err)
	}
}
