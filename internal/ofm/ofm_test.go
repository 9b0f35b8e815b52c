package ofm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/machine"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

func testSchema() *value.Schema {
	return value.MustSchema("id", "INT", "dept", "VARCHAR", "salary", "INT")
}

func emp(id int64, dept string, salary int64) value.Tuple {
	return value.NewTuple(value.NewInt(id), value.NewString(dept), value.NewInt(salary))
}

// newOFM builds a persistent OFM with its own machine, log and txn mgr.
func newOFM(t *testing.T) (*OFM, *machine.Machine, *txn.Manager) {
	t.Helper()
	m, err := machine.New(machine.Config{NumPEs: 16})
	if err != nil {
		t.Fatal(err)
	}
	store, err := machine.NewStableStore(m.PE(0), machine.DiskModel{})
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(store, "wal-emp-0")
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{
		Name:    "emp#0",
		Schema:  testSchema(),
		PE:      m.PE(1),
		Machine: m,
		Kind:    Persistent,
		Log:     log,
	})
	if err != nil {
		t.Fatal(err)
	}
	return o, m, txn.NewManager()
}

func load(t *testing.T, o *OFM, n int) {
	t.Helper()
	tuples := make([]value.Tuple, n)
	depts := []string{"eng", "ops", "hr"}
	for i := range tuples {
		tuples[i] = emp(int64(i), depts[i%3], int64(i*10))
	}
	if err := o.Load(tuples); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	m, err := machine.New(machine.Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Schema: testSchema(), PE: m.PE(0)}); err == nil {
		t.Error("empty name should error")
	}
	if _, err := New(Config{Name: "x", PE: m.PE(0)}); err == nil {
		t.Error("nil schema should error")
	}
	if _, err := New(Config{Name: "x", Schema: testSchema()}); err == nil {
		t.Error("nil PE should error")
	}
	if _, err := New(Config{Name: "x", Schema: testSchema(), PE: m.PE(0), Kind: Persistent}); err == nil {
		t.Error("persistent without log should error")
	}
	// Transient without log is fine.
	o, err := New(Config{Name: "x", Schema: testSchema(), PE: m.PE(0), Kind: Transient})
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind() != Transient || o.Kind().String() != "transient" {
		t.Errorf("kind = %v", o.Kind())
	}
}

// scan runs the batch scan and materializes its rows.
func scan(t *testing.T, o *OFM, view View, pred expr.Expr, cols []int) *value.Relation {
	t.Helper()
	b, _, err := o.ScanBatch(view, pred, cols)
	if err != nil {
		t.Fatal(err)
	}
	return b.Materialize()
}

// refScan is the test-side reference for the batch scan: the view's
// tuples a row at a time (VisibleTuples), filtered by the bound expression
// interpreter and projected to cols (nil = all).
func refScan(o *OFM, view View, pred expr.Expr, cols []int) (*value.Relation, error) {
	if pred != nil {
		pred = expr.Clone(pred)
		if _, err := expr.Bind(pred, o.Schema()); err != nil {
			return nil, err
		}
	}
	out := value.NewRelation(o.Schema())
	if cols != nil {
		out.Schema = o.Schema().Project(cols)
	}
	for _, tup := range o.VisibleTuples(view) {
		if pred != nil {
			v, err := pred.Eval(tup)
			if err != nil {
				return nil, err
			}
			if !expr.Truthy(v) {
				continue
			}
		}
		if cols != nil {
			tup = tup.Project(cols)
		}
		out.Append(tup)
	}
	return out, nil
}

// TestScanFullAndFiltered also runs with Config.Compiled off: the field,
// kept for a caller outside the module's packages, changes nothing.
func TestScanFullAndFiltered(t *testing.T) {
	for _, compiled := range []bool{true, false} {
		t.Run(fmt.Sprintf("compiled=%v", compiled), func(t *testing.T) {
			o, m, _ := newOFM(t)
			o.cfg.Compiled = compiled
			load(t, o, 30)
			if all := scan(t, o, Latest, nil, nil); all.Len() != 30 {
				t.Errorf("full scan = %d", all.Len())
			}
			pred := expr.NewCmp(expr.GE, expr.NewCol("salary"), expr.NewConst(value.NewInt(150)))
			if some := scan(t, o, Latest, pred, nil); some.Len() != 15 {
				t.Errorf("filtered scan = %d, want 15", some.Len())
			}
			// Projection.
			if proj := scan(t, o, Latest, pred, []int{0}); proj.Schema.Len() != 1 || proj.Len() != 15 {
				t.Errorf("projected scan = %v", proj.Schema)
			}
			// Virtual time charged.
			if m.PE(1).Clock() <= 0 {
				t.Error("scan must charge virtual time")
			}
		})
	}
}

func TestIndexProbe(t *testing.T) {
	o, m, _ := newOFM(t)
	load(t, o, 100)
	if _, err := o.Store().CreateHashIndex("by_id", []int{0}); err != nil {
		t.Fatal(err)
	}
	m.ResetClocks()
	pred := expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(42)))
	out := scan(t, o, Latest, pred, nil)
	if out.Len() != 1 || out.Tuples[0][0].Int() != 42 {
		t.Fatalf("index probe = %v", out.Tuples)
	}
	probeTime := m.PE(1).Clock()
	if st := o.CacheStats(); st.FullBuilds != 0 || st.ResidentBytes != 0 {
		t.Errorf("the index probe built the column cache: %+v", st)
	}

	// A non-indexed scan of the same data costs much more virtual time.
	m.ResetClocks()
	pred2 := expr.NewCmp(expr.EQ, expr.NewCol("salary"), expr.NewConst(value.NewInt(420)))
	scan(t, o, Latest, pred2, nil)
	scanTime := m.PE(1).Clock()
	if probeTime >= scanTime {
		t.Errorf("index probe %v not cheaper than full scan %v", probeTime, scanTime)
	}

	// Compound predicate: index probe plus residual filter.
	pred3 := expr.NewAnd(
		expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(42))),
		expr.NewCmp(expr.GT, expr.NewCol("salary"), expr.NewConst(value.NewInt(99999))))
	if out = scan(t, o, Latest, pred3, nil); out.Len() != 0 {
		t.Errorf("residual filter ignored: %v", out.Tuples)
	}
	// Constant on the left also probes.
	pred4 := expr.NewCmp(expr.EQ, expr.NewConst(value.NewInt(7)), expr.NewCol("id"))
	if out = scan(t, o, Latest, pred4, nil); out.Len() != 1 {
		t.Errorf("const-left probe = %v", out.Tuples)
	}
}

func TestClosureOperator(t *testing.T) {
	m, err := machine.New(machine.Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{
		Name:   "edges#0",
		Schema: value.MustSchema("src", "INT", "dst", "INT"),
		PE:     m.PE(0),
		Kind:   Transient,
	})
	if err != nil {
		t.Fatal(err)
	}
	var edges []value.Tuple
	for i := int64(0); i < 10; i++ {
		edges = append(edges, value.Ints(i, i+1))
	}
	if err := o.Load(edges); err != nil {
		t.Fatal(err)
	}
	out, err := o.Closure(Latest, 0, 1, algebra.TCSemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 55 { // 10+9+...+1
		t.Errorf("closure = %d pairs, want 55", out.Len())
	}
}

func TestTransactionCommitFlow(t *testing.T) {
	o, _, mgr := newOFM(t)
	load(t, o, 10)
	tx := mgr.Begin()
	if err := tx.Lock(o.Name(), txn.Exclusive); err != nil {
		t.Fatal(err)
	}
	tx.Enlist(o)
	if err := o.InsertTx(tx.ID(), emp(100, "new", 999)); err != nil {
		t.Fatal(err)
	}
	// Deferred: not visible before commit.
	if o.Rows() != 10 {
		t.Errorf("insert visible before commit: %d rows", o.Rows())
	}
	ins, dels := o.PendingFor(tx.ID())
	if ins != 1 || dels != 0 {
		t.Errorf("pending = %d/%d", ins, dels)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if o.Rows() != 11 {
		t.Errorf("rows after commit = %d", o.Rows())
	}
	// The write set is gone.
	ins, dels = o.PendingFor(tx.ID())
	if ins != 0 || dels != 0 {
		t.Errorf("write set survived commit: %d/%d", ins, dels)
	}
}

func TestTransactionAbortDiscards(t *testing.T) {
	o, _, mgr := newOFM(t)
	load(t, o, 10)
	tx := mgr.Begin()
	tx.Enlist(o)
	if err := o.InsertTx(tx.ID(), emp(100, "new", 999)); err != nil {
		t.Fatal(err)
	}
	if _, err := o.DeleteTx(tx.ID(), nil, Latest); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if o.Rows() != 10 {
		t.Errorf("abort changed rows: %d", o.Rows())
	}
}

func TestDeleteTx(t *testing.T) {
	o, _, mgr := newOFM(t)
	load(t, o, 30)
	tx := mgr.Begin()
	tx.Enlist(o)
	pred := expr.NewCmp(expr.EQ, expr.NewCol("dept"), expr.NewConst(value.NewString("eng")))
	n, err := o.DeleteTx(tx.ID(), pred, Latest)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("matched %d, want 10", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if o.Rows() != 20 {
		t.Errorf("rows after delete = %d", o.Rows())
	}
	if left := scan(t, o, Latest, pred, nil); left.Len() != 0 {
		t.Errorf("eng rows survived: %v", left.Tuples)
	}
}

func TestUpdateTx(t *testing.T) {
	o, _, mgr := newOFM(t)
	load(t, o, 10)
	tx := mgr.Begin()
	tx.Enlist(o)
	// UPDATE emp SET salary = salary + 1000 WHERE dept = 'eng'.
	pred := expr.NewCmp(expr.EQ, expr.NewCol("dept"), expr.NewConst(value.NewString("eng")))
	set := map[int]expr.Expr{
		2: expr.NewArith(expr.Add, expr.NewCol("salary"), expr.NewConst(value.NewInt(1000))),
	}
	n, err := o.UpdateTx(tx.ID(), pred, set, Latest)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 { // ids 0,3,6,9
		t.Errorf("updated %d, want 4", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, row := range scan(t, o, Latest, pred, nil).Tuples {
		if row[2].Int() < 1000 {
			t.Errorf("update not applied: %v", row)
		}
	}
	if o.Rows() != 10 {
		t.Errorf("update changed cardinality: %d", o.Rows())
	}
	// Bad set column.
	tx2 := mgr.Begin()
	if _, err := o.UpdateTx(tx2.ID(), nil, map[int]expr.Expr{9: expr.NewConst(value.NewInt(1))}, Latest); err == nil {
		t.Error("bad set column should error")
	}
	tx2.Abort()
}

func TestMutationAfterPrepareRejected(t *testing.T) {
	o, _, mgr := newOFM(t)
	tx := mgr.Begin()
	if err := o.InsertTx(tx.ID(), emp(1, "x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := o.Prepare(tx.ID()); err != nil {
		t.Fatal(err)
	}
	if err := o.InsertTx(tx.ID(), emp(2, "y", 2)); err == nil {
		t.Error("insert after prepare should error")
	}
	if _, err := o.DeleteTx(tx.ID(), nil, Latest); err == nil {
		t.Error("delete after prepare should error")
	}
	if err := o.Commit(tx.ID(), 0); err != nil {
		t.Fatal(err)
	}
	tx.Abort() // local txn cleanup; OFM already committed via direct calls
}

func TestCrashRecovery(t *testing.T) {
	o, _, mgr := newOFM(t)
	load(t, o, 20)

	// Committed txn: survives.
	tx1 := mgr.Begin()
	tx1.Enlist(o)
	if err := o.InsertTx(tx1.ID(), emp(100, "new", 1)); err != nil {
		t.Fatal(err)
	}
	pred := expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(5)))
	if _, err := o.DeleteTx(tx1.ID(), pred, Latest); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}

	// Uncommitted txn: lost.
	tx2 := mgr.Begin()
	tx2.Enlist(o)
	if err := o.InsertTx(tx2.ID(), emp(200, "ghost", 2)); err != nil {
		t.Fatal(err)
	}

	before := scan(t, o, Latest, nil, nil)

	o.Crash()
	if o.Rows() != 0 {
		t.Fatal("crash should clear volatile state")
	}
	applied, err := o.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Error("no redo applied")
	}
	if after := scan(t, o, Latest, nil, nil); !after.SameSet(before) {
		t.Errorf("recovery diverged: %d rows vs %d", after.Len(), before.Len())
	}
	// The ghost insert is absent.
	if ghost := scan(t, o, Latest, expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(200))), nil); ghost.Len() != 0 {
		t.Error("uncommitted insert survived the crash")
	}
}

func TestCheckpointShortensRecovery(t *testing.T) {
	o, _, mgr := newOFM(t)
	load(t, o, 5)
	for i := 0; i < 10; i++ {
		tx := mgr.Begin()
		tx.Enlist(o)
		if err := o.InsertTx(tx.ID(), emp(int64(1000+i), "x", 1)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One more commit after the checkpoint.
	tx := mgr.Begin()
	tx.Enlist(o)
	if err := o.InsertTx(tx.ID(), emp(2000, "y", 2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	o.Crash()
	applied, err := o.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// Only the post-checkpoint txn is redone.
	if applied != 1 {
		t.Errorf("redo after checkpoint = %d records, want 1", applied)
	}
	if o.Rows() != 16 {
		t.Errorf("rows after recovery = %d, want 16", o.Rows())
	}
}

// A bulk load that lands while a transaction sits prepared must keep
// that transaction's redo across its checkpoint, as Checkpoint does: the
// coordinator may yet decide commit.
func TestLoadCarriesPreparedWriteSet(t *testing.T) {
	folds := map[string]func(*OFM) error{
		"Load":       func(o *OFM) error { return o.Load([]value.Tuple{emp(1, "eng", 10)}) },
		"Checkpoint": (*OFM).Checkpoint,
	}
	for name, fold := range folds {
		t.Run(name, func(t *testing.T) {
			o, _, _ := newOFM(t)
			const tx = txn.ID(7)
			o.cfg.Decide = func(id txn.ID) (uint64, bool, bool) { return 5, id == tx, id == tx }
			if err := o.InsertTx(tx, emp(100, "new", 1)); err != nil {
				t.Fatal(err)
			}
			if err := o.Prepare(tx); err != nil {
				t.Fatal(err)
			}
			if err := fold(o); err != nil {
				t.Fatal(err)
			}
			o.Crash()
			redone, err := o.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if redone != 1 {
				t.Errorf("recovery redid %d records of the prepared transaction, want 1", redone)
			}
			if row := scan(t, o, Latest, expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(100))), nil); row.Len() != 1 {
				t.Errorf("the decided-commit insert is gone after %s + crash", name)
			}
		})
	}
}

func TestTransientOFMBehavior(t *testing.T) {
	m, err := machine.New(machine.Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{Name: "tmp#0", Schema: testSchema(), PE: m.PE(0), Kind: Transient})
	if err != nil {
		t.Fatal(err)
	}
	load(t, o, 10)
	mgr := txn.NewManager()
	tx := mgr.Begin()
	tx.Enlist(o)
	if err := o.InsertTx(tx.ID(), emp(99, "z", 9)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if o.Rows() != 11 {
		t.Errorf("rows = %d", o.Rows())
	}
	// No recovery for transient OFMs.
	o.Crash()
	if _, err := o.Recover(); err == nil {
		t.Error("transient recovery should error")
	}
	if err := o.Checkpoint(); err != nil {
		t.Errorf("transient checkpoint should be a no-op, got %v", err)
	}
}

func TestStatsCallback(t *testing.T) {
	m, err := machine.New(machine.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	var bytes int64
	o, err := New(Config{
		Name: "s#0", Schema: testSchema(), PE: m.PE(0), Kind: Transient,
		StatsFn: func(rd int, bd int64) { rows += rd; bytes += bd },
	})
	if err != nil {
		t.Fatal(err)
	}
	load(t, o, 10)
	if rows != 10 || bytes <= 0 {
		t.Errorf("stats after load: %d rows %d bytes", rows, bytes)
	}
	mgr := txn.NewManager()
	tx := mgr.Begin()
	tx.Enlist(o)
	if _, err := o.DeleteTx(tx.ID(), nil, Latest); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if rows != 0 {
		t.Errorf("stats after delete-all: %d rows", rows)
	}
}

func TestMemoryBudgetEnforced(t *testing.T) {
	m, err := machine.New(machine.Config{NumPEs: 2, MemoryPerPE: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{Name: "m#0", Schema: testSchema(), PE: m.PE(0), Kind: Transient})
	if err != nil {
		t.Fatal(err)
	}
	load(t, o, 100)
	if m.PE(0).MemUsed() <= 0 {
		t.Error("PE memory accounting not wired")
	}
	used := m.PE(0).MemUsed()
	mgr := txn.NewManager()
	tx := mgr.Begin()
	tx.Enlist(o)
	if _, err := o.DeleteTx(tx.ID(), nil, Latest); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if m.PE(0).MemUsed() >= used {
		t.Error("memory not released after delete")
	}
}

func TestLoadTypeErrors(t *testing.T) {
	o, _, _ := newOFM(t)
	err := o.Load([]value.Tuple{value.Ints(1)})
	if err == nil || !strings.Contains(err.Error(), "arity") {
		t.Errorf("bad load error = %v", err)
	}
}
