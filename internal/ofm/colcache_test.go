package ofm

import (
	"sync/atomic"
	"testing"

	"repro/internal/expr"
	"repro/internal/machine"
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
	if o.cc.rows != 10 || o.cc.current != 6 {
		t.Fatalf("cache rows/current = %d/%d, want 10/6", o.cc.rows, o.cc.current)
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
	if o.cc.rows != 10 || o.cc.current != 8 {
		t.Errorf("cache rows/current = %d/%d, want 10/8 (holes reused in place)", o.cc.rows, o.cc.current)
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

// TestScanBatchMatchesScan is the fragment-level differential: for a
// spread of views, predicates and projections the batch scan materializes
// to exactly what the reference (refScan) computes. The views include a
// transaction's with a pending insert, one's with a pending delete and
// one's with a pending update on the fragment, and one whose transaction
// wrote only to another fragment; the predicates include equalities the
// hash index answers, alone and with a residual, one whose key only a
// pending insert holds, and a NULL key.
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

	idIs := func(id int64) expr.Expr {
		return expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(id)))
	}
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

	preds := []expr.Expr{
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
	// The executor's point path, ProbeEq, agrees too.
	wellPaid := expr.NewCmp(expr.GT, expr.NewCol("salary"), expr.NewConst(value.NewInt(100)))
	for vi, v := range views {
		for _, key := range []int64{7, 300} {
			for _, rest := range []expr.Expr{nil, wellPaid} {
				want, err := refScan(o, v, expr.Conjoin([]expr.Expr{idIs(key), rest}), nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := o.ProbeEq(v, 0, value.NewInt(key), rest)
				if err != nil {
					t.Fatal(err)
				}
				if !got.SameBag(want) {
					t.Errorf("ProbeEq id %d rest %v view %d: %d rows vs reference %d", key, rest, vi, got.Len(), want.Len())
				}
			}
		}
	}
}
