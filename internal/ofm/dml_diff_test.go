package ofm

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/expr"
	"repro/internal/machine"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// dmlSchema extends testSchema with a FLOAT column that holds NaNs and a
// BOOL column.
func dmlSchema() *value.Schema {
	return value.MustSchema("id", "INT", "dept", "VARCHAR", "salary", "INT", "score", "FLOAT", "active", "BOOL")
}

// dmlRow makes row id of the DML differential: NULLs in every non-key
// column, NaN scores, departments a LIKE tells apart.
func dmlRow(id int64) value.Tuple {
	dept := value.NewString([]string{"eng", "ops", "hr"}[id%3])
	if id%7 == 0 {
		dept = value.Null
	}
	salary := value.NewInt(id * 10)
	if id%5 == 0 {
		salary = value.Null
	}
	score := value.NewFloat(float64(id) / 3)
	switch {
	case id%4 == 0:
		score = value.NewFloat(math.NaN())
	case id%9 == 0:
		score = value.Null
	}
	active := value.NewBool(id%2 == 1)
	if id%8 == 0 {
		active = value.Null
	}
	return value.NewTuple(value.NewInt(id), dept, salary, score, active)
}

// newDMLOFM builds a persistent OFM over dmlSchema with a pk hash index
// on id and a GC horizon held at 1, so every version a commit supersedes
// stays for the snapshots, and returns it with its log.
func newDMLOFM(t *testing.T) (*OFM, *wal.Log, *txn.Manager) {
	t.Helper()
	m, err := machine.New(machine.Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	stable, err := machine.NewStableStore(m.PE(0), machine.DiskModel{})
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(stable, "wal-dml-0")
	if err != nil {
		t.Fatal(err)
	}
	var horizon atomic.Uint64
	horizon.Store(1)
	o, err := New(Config{Name: "dml#0", Schema: dmlSchema(), PE: m.PE(1), Machine: m,
		Kind: Persistent, Log: log, Horizon: horizon.Load})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Store().CreateHashIndex("pk", []int{0}); err != nil {
		t.Fatal(err)
	}
	return o, log, txn.NewManager()
}

// dmlPreds is scanPreds plus NULL, NaN, BOOL, IN, LIKE, OR and NOT
// predicates, an INT key compared with a FLOAT (a scan, not a probe) and a
// probe with a residual over the FLOAT column.
func dmlPreds() []expr.Expr {
	col := expr.NewCol
	num := func(n int64) expr.Expr { return expr.NewConst(value.NewInt(n)) }
	flt := func(f float64) expr.Expr { return expr.NewConst(value.NewFloat(f)) }
	return append(scanPreds(),
		expr.NewIsNull(col("salary"), false),
		expr.NewAnd(expr.NewIsNull(col("dept"), true), expr.NewCmp(expr.GT, col("salary"), num(300))),
		expr.NewCmp(expr.LT, col("score"), flt(5)),
		expr.NewCmp(expr.GE, col("score"), flt(math.NaN())),
		expr.NewIn(col("id"), []value.Value{value.NewInt(3), value.NewInt(7), value.NewInt(64), value.NewInt(300)}, false),
		expr.NewIn(col("dept"), []value.Value{value.NewString("eng")}, true),
		expr.NewLike(col("dept"), "%s", false),
		expr.NewOr(idIs(7), expr.NewIsNull(col("salary"), false)),
		expr.NewNot(expr.NewCmp(expr.LT, col("salary"), num(200))),
		expr.NewNot(expr.NewCmp(expr.EQ, col("dept"), expr.NewConst(value.NewString("ops")))),
		expr.NewCmp(expr.EQ, col("id"), flt(7)),
		expr.NewAnd(idIs(64), expr.NewCmp(expr.GT, col("score"), flt(1))),
		expr.NewIsNull(col("active"), false),
		expr.NewCmp(expr.EQ, col("active"), expr.NewConst(value.NewBool(true))),
		expr.NewNot(col("active")),
	)
}

// refMatch is the row-at-a-time reference for the rows a write matches:
// the store's versions visible at view.TS in slot order, less those the
// view's transaction deleted, and the positions of its pending inserts,
// each through the bound expression interpreter.
func refMatch(t *testing.T, o *OFM, view View, pred expr.Expr) (ids []storage.RowID, pend []int) {
	t.Helper()
	accept := func(tup value.Tuple) bool { return true }
	if pred != nil {
		bound := expr.Clone(pred)
		if _, err := expr.Bind(bound, o.Schema()); err != nil {
			t.Fatal(err)
		}
		accept = func(tup value.Tuple) bool {
			v, err := bound.Eval(tup)
			if err != nil {
				t.Fatal(err)
			}
			return expr.Truthy(v)
		}
	}
	del, ins := o.overlay(view)
	o.store.ScanAt(view.TS, func(id storage.RowID, tup value.Tuple) bool {
		if _, gone := del[id]; !gone && accept(tup) {
			ids = append(ids, id)
		}
		return true
	})
	for i, tup := range ins {
		if accept(tup) {
			pend = append(pend, i)
		}
	}
	return ids, pend
}

// txRecords renders the log records of tx, in log order.
func txRecords(t *testing.T, log *wal.Log, tx txn.ID) []string {
	t.Helper()
	recs, err := log.Scan()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range recs {
		if r.Txn == tx {
			out = append(out, fmt.Sprintf("%d %v", r.Type, r.Tuple))
		}
	}
	return out
}

// TestDMLMatchesReference is the write side's differential: DeleteTx and
// UpdateTx, which find their rows through the fragment scan (or the pk
// probe), must match exactly the reference's rows — under Latest, a
// pinned snapshot older than a commit that superseded rows, and one after
// it, each with and without the transaction's own pending inserts and
// deletes — and Prepare must log them as a row-at-a-time match would:
// the deletes in slot order, then the inserts, pending ones first. A
// snapshot match on a superseded version must still fail with
// txn.ErrConflict.
func TestDMLMatchesReference(t *testing.T) {
	o, log, mgr := newDMLOFM(t)
	rows := make([]value.Tuple, 70) // two mask words
	for i := range rows {
		rows[i] = dmlRow(int64(i))
	}
	if err := o.Load(rows); err != nil {
		t.Fatal(err)
	}
	churn := mgr.Begin()
	if _, err := o.DeleteTx(churn.ID(), expr.NewCmp(expr.GE, expr.NewCol("id"), expr.NewConst(value.NewInt(60))), Latest); err != nil {
		t.Fatal(err)
	}
	if _, err := o.UpdateTx(churn.ID(), idIs(3), map[int]expr.Expr{2: expr.NewConst(value.NewInt(5))}, Latest); err != nil {
		t.Fatal(err)
	}
	// The catch-up folds these into the cache: together they write a NULL
	// into every nullable column and a NaN into score.
	if err := o.InsertTx(churn.ID(), dmlRow(63), dmlRow(64), dmlRow(200)); err != nil {
		t.Fatal(err)
	}
	commitAt(t, o, churn, 10)

	set := bindSet(t, o, map[int]expr.Expr{
		1: expr.NewConst(value.NewString("upd")),
		2: expr.NewArith(expr.Add, expr.NewCol("salary"), expr.NewConst(value.NewInt(1))),
	})
	bump := expr.Clone(set[2])
	if _, err := expr.Bind(bump, o.Schema()); err != nil {
		t.Fatal(err)
	}
	image := func(old value.Tuple) string {
		v, err := bump.Eval(old)
		if err != nil {
			t.Fatal(err)
		}
		up := old.Clone()
		up[1], up[2] = value.NewString("upd"), v
		return fmt.Sprintf("%d %v", wal.RecInsert, up)
	}

	conflicts := 0
	for pi, p := range dmlPreds() {
		for _, ts := range []uint64{LatestTS, 5, 15} {
			for own := 0; own < 4; own++ {
				for _, update := range []bool{false, true} {
					tx := mgr.Begin()
					view := View{TS: ts, Tx: tx.ID()}
					if own&1 != 0 {
						if err := o.InsertTx(tx.ID(), dmlRow(300), dmlRow(301), dmlRow(7)); err != nil {
							t.Fatal(err)
						}
					}
					if own&2 != 0 {
						if _, err := o.DeleteTx(tx.ID(), expr.NewIn(expr.NewCol("id"), []value.Value{value.NewInt(7), value.NewInt(20)}, false), view); err != nil {
							t.Fatal(err)
						}
					}
					name := fmt.Sprintf("pred %d (%v) ts %d own %d update %v", pi, p, ts, own, update)
					ids, pend := refMatch(t, o, view, p)
					var want []string
					o.mu.Lock()
					w := o.ws(tx.ID())
					for _, old := range w.delTuple {
						want = append(want, fmt.Sprintf("%d %v", wal.RecDelete, old))
					}
					ins := append([]value.Tuple(nil), w.inserts...)
					o.mu.Unlock()
					superseded := false
					for _, id := range ids {
						old, _ := o.store.GetAt(nil, id, ts)
						want = append(want, fmt.Sprintf("%d %v", wal.RecDelete, old))
						if _, end, _ := o.store.VersionTS(id); end != 0 {
							superseded = true
						}
					}
					for i, j := 0, 0; i < len(ins); i++ {
						matched := j < len(pend) && pend[j] == i
						if matched {
							j++
						}
						switch {
						case !matched:
							want = append(want, fmt.Sprintf("%d %v", wal.RecInsert, ins[i]))
						case update:
							want = append(want, image(ins[i]))
						}
					}
					if update {
						for _, id := range ids {
							old, _ := o.store.GetAt(nil, id, ts)
							want = append(want, image(old))
						}
					}
					want = append(want, fmt.Sprintf("%d %v", wal.RecPrepare, value.Tuple(nil)))

					var n int
					var err error
					if update {
						n, err = o.UpdateTx(tx.ID(), clonePred(p), set, view)
					} else {
						n, err = o.DeleteTx(tx.ID(), clonePred(p), view)
					}
					switch {
					case superseded:
						if !errors.Is(err, txn.ErrConflict) {
							t.Errorf("%s: matched a superseded version, got %v, want ErrConflict", name, err)
						}
						conflicts++
					case err != nil:
						t.Errorf("%s: %v", name, err)
					case n != len(ids)+len(pend):
						t.Errorf("%s: %d rows, reference %d", name, n, len(ids)+len(pend))
					default:
						if err := o.Prepare(tx.ID()); err != nil {
							t.Fatal(err)
						}
						if got := txRecords(t, log, tx.ID()); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Errorf("%s: logged\n%v\nwant\n%v", name, got, want)
						}
					}
					if err := o.Abort(tx.ID()); err != nil {
						t.Fatal(err)
					}
					tx.Abort()
				}
			}
		}
	}
	if conflicts == 0 {
		t.Error("no case matched a superseded version")
	}
	if st := o.CacheStats(); st.FullBuilds != 1 || st.CatchUps == 0 {
		t.Errorf("cache %+v: the churn must reach it by a catch-up", st)
	}
}

// TestPointUpdateBuildsNoImage: an autocommit pk UPDATE is answered by the
// hash index — no column image is built, and the write allocates no more
// than the probe-then-buffer path it replaced.
func TestPointUpdateBuildsNoImage(t *testing.T) {
	o, _, mgr := newDMLOFM(t)
	rows := make([]value.Tuple, 200)
	for i := range rows {
		rows[i] = dmlRow(int64(i))
	}
	if err := o.Load(rows); err != nil {
		t.Fatal(err)
	}
	pred := idIs(77)
	set := bindSet(t, o, map[int]expr.Expr{2: expr.NewArith(expr.Add, expr.NewCol("salary"), expr.NewConst(value.NewInt(1)))})
	allocs := testing.AllocsPerRun(200, func() {
		tx := mgr.Begin()
		if n, err := o.UpdateTx(tx.ID(), pred, set, Latest); err != nil || n != 1 {
			t.Fatalf("update = %d, %v", n, err)
		}
		if err := o.Abort(tx.ID()); err != nil {
			t.Fatal(err)
		}
		tx.Abort()
	})
	if st := o.CacheStats(); st.FullBuilds != 0 || st.ResidentBytes != 0 {
		t.Errorf("point updates built a column image: %+v", st)
	}
	// When writes had a matcher of their own the same loop allocated 12
	// times (the transaction, the bound SET expression, the write set and
	// its three entries, the new image, the probe's ids). The shared
	// matcher saved one and one array for the old and new images another;
	// a SET list that arrives bound saves the per-call clone of its
	// expression: 7 are left.
	if allocs > 7 {
		t.Errorf("point update allocates %.0f times, want <= 7", allocs)
	}
}
