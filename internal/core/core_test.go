package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/optimizer"
)

// newEngine builds a 16-PE engine (4x4 torus is not square-free: 16 PEs
// gets the 4x4 torus) for tests.
func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{NumPEs: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

// setupEmp creates and loads the standard test schema.
func setupEmp(t *testing.T, e *Engine) *Session {
	t.Helper()
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE emp (id INT, dept VARCHAR, salary INT, PRIMARY KEY (id))
		FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`)
	mustExec(t, s, `CREATE TABLE dept (name VARCHAR, budget INT, PRIMARY KEY (name))`)
	depts := []string{"eng", "ops", "hr"}
	var rows []string
	for i := 0; i < 60; i++ {
		rows = append(rows, fmt.Sprintf("(%d, '%s', %d)", i, depts[i%3], i*10))
	}
	mustExec(t, s, "INSERT INTO emp VALUES "+strings.Join(rows, ", "))
	mustExec(t, s, `INSERT INTO dept VALUES ('eng', 1000), ('ops', 500), ('hr', 200)`)
	return s
}

func TestCreateInsertSelect(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	rel, err := s.Query(`SELECT * FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 60 {
		t.Errorf("SELECT * = %d rows", rel.Len())
	}
	// Data is actually fragmented: each of 4 fragments holds some rows.
	tab, err := e.lookupTable("emp")
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range tab.frags {
		if f.ofm.Rows() == 0 {
			t.Errorf("fragment %d is empty; no distribution", i)
		}
	}
	// Catalog stats updated.
	if tab.def.Rows() != 60 {
		t.Errorf("catalog rows = %d", tab.def.Rows())
	}
}

func TestSelectWithPredicate(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	rel, err := s.Query(`SELECT id, salary FROM emp WHERE salary >= 300 AND dept = 'eng'`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rel.Tuples {
		if row[1].Int() < 300 {
			t.Errorf("predicate violated: %v", row)
		}
	}
	if rel.Schema.Len() != 2 {
		t.Errorf("projection schema = %v", rel.Schema)
	}
	// eng ids are multiples of 3; salary = id*10 >= 300 => id >= 30.
	want := 0
	for i := 30; i < 60; i++ {
		if i%3 == 0 {
			want++
		}
	}
	if rel.Len() != want {
		t.Errorf("rows = %d, want %d", rel.Len(), want)
	}
}

func TestPointLookupPrunesFragments(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	rel, err := s.Query(`SELECT * FROM emp WHERE id = 42`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0][0].Int() != 42 {
		t.Errorf("point lookup = %v", rel.Tuples)
	}
}

func TestJoin(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	rel, err := s.Query(`SELECT e.id, d.budget FROM emp e JOIN dept d ON e.dept = d.name WHERE e.id < 6`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 6 {
		t.Fatalf("join rows = %d, want 6: %v", rel.Len(), rel.Tuples)
	}
	for _, row := range rel.Tuples {
		id := row[0].Int()
		wantBudget := map[int64]int64{0: 1000, 1: 500, 2: 200}[id%3]
		if row[1].Int() != wantBudget {
			t.Errorf("row %v: budget mismatch", row)
		}
	}
}

func TestColocatedJoin(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	// Self-join on the hash key: optimizer should pick colocated.
	res := mustExec(t, s, `SELECT a.id FROM emp a JOIN emp b ON a.id = b.id`)
	if res.Rel.Len() != 60 {
		t.Errorf("self join rows = %d", res.Rel.Len())
	}
	if !strings.Contains(res.Plan, "colocated") {
		t.Errorf("plan did not choose colocated join:\n%s", res.Plan)
	}
}

func TestImplicitJoinSyntax(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	rel, err := s.Query(`SELECT e.id FROM emp e, dept d WHERE e.dept = d.name AND d.budget > 600`)
	if err != nil {
		t.Fatal(err)
	}
	// Only eng (budget 1000): 20 employees.
	if rel.Len() != 20 {
		t.Errorf("rows = %d, want 20", rel.Len())
	}
}

func TestCrossProductRejected(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	if _, err := s.Query(`SELECT * FROM emp, dept`); err == nil {
		t.Error("cross product should be rejected")
	}
}

func TestAggregation(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	rel, err := s.Query(`SELECT dept, COUNT(*) AS n, SUM(salary) AS total, AVG(salary) AS mean
		FROM emp GROUP BY dept ORDER BY dept`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Fatalf("groups = %d: %v", rel.Len(), rel.Tuples)
	}
	if rel.Tuples[0][0].Str() != "eng" {
		t.Errorf("order by dept: first = %v", rel.Tuples[0])
	}
	for _, row := range rel.Tuples {
		if row[1].Int() != 20 {
			t.Errorf("count for %s = %v", row[0].Str(), row[1])
		}
	}
	// Global aggregate.
	rel, err = s.Query(`SELECT COUNT(*) AS n, MIN(salary) AS lo, MAX(salary) AS hi FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	row := rel.Tuples[0]
	if row[0].Int() != 60 || row[1].Int() != 0 || row[2].Int() != 590 {
		t.Errorf("global aggregate = %v", row)
	}
}

func TestAggregatePushdownMatchesCentral(t *testing.T) {
	// The same query with and without the parallel rule must agree.
	eAll := newEngine(t)
	sAll := setupEmp(t, eAll)
	noPar := optimizer.Options{Pushdown: true, JoinOrder: true, CSE: true, Parallel: false}
	eOff, err := New(Config{NumPEs: 16, Optimizer: &noPar})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eOff.Close)
	sOff := setupEmp(t, eOff)
	q := `SELECT dept, COUNT(*) AS n, AVG(salary) AS mean FROM emp GROUP BY dept`
	a, err := sAll.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sOff.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !a.SameSet(b) {
		t.Errorf("pushdown %v != central %v", a.Tuples, b.Tuples)
	}
}

func TestHavingDistinctLimit(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	rel, err := s.Query(`SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept HAVING n > 19`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 { // all have 20
		t.Errorf("having rows = %d", rel.Len())
	}
	rel, err = s.Query(`SELECT DISTINCT dept FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Errorf("distinct = %d", rel.Len())
	}
	rel, err = s.Query(`SELECT id FROM emp ORDER BY id DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 5 || rel.Tuples[0][0].Int() != 59 {
		t.Errorf("order/limit = %v", rel.Tuples)
	}
}

func TestUpdateAndDelete(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	res := mustExec(t, s, `UPDATE emp SET salary = salary + 1000 WHERE dept = 'hr'`)
	if res.Affected != 20 {
		t.Errorf("updated %d", res.Affected)
	}
	rel, err := s.Query(`SELECT MIN(salary) AS lo FROM emp WHERE dept = 'hr'`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0][0].Int() < 1000 {
		t.Errorf("update not visible: %v", rel.Tuples)
	}
	res = mustExec(t, s, `DELETE FROM emp WHERE dept = 'hr'`)
	if res.Affected != 20 {
		t.Errorf("deleted %d", res.Affected)
	}
	rel, err = s.Query(`SELECT COUNT(*) AS n FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0][0].Int() != 40 {
		t.Errorf("rows after delete = %v", rel.Tuples[0])
	}
	// Catalog stats follow.
	tab, _ := e.lookupTable("emp")
	if tab.def.Rows() != 40 {
		t.Errorf("catalog rows = %d", tab.def.Rows())
	}
}

func TestUpdateFragKeyRejected(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	if _, err := s.Exec(`UPDATE emp SET id = id + 1`); err == nil {
		t.Error("updating the fragmentation key should be rejected")
	}
}

func TestExplicitTransactions(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO emp VALUES (100, 'eng', 1)`)
	mustExec(t, s, `DELETE FROM emp WHERE id = 0`)
	// Another session doesn't see uncommitted changes... it would block
	// on locks, so check via direct fragment reads: deferred writes are
	// invisible until commit by design.
	tab, _ := e.lookupTable("emp")
	total := 0
	for _, f := range tab.frags {
		total += f.ofm.Rows()
	}
	if total != 60 {
		t.Errorf("uncommitted changes visible: %d rows", total)
	}
	mustExec(t, s, `COMMIT`)
	rel, err := s.Query(`SELECT COUNT(*) AS n FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0][0].Int() != 60 { // +1 -1
		t.Errorf("rows after commit = %v", rel.Tuples[0])
	}
	// Rollback path.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `DELETE FROM emp`)
	mustExec(t, s, `ROLLBACK`)
	rel, err = s.Query(`SELECT COUNT(*) AS n FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0][0].Int() != 60 {
		t.Errorf("rollback failed: %v", rel.Tuples[0])
	}
	// Double BEGIN and stray COMMIT error.
	mustExec(t, s, `BEGIN`)
	if _, err := s.Exec(`BEGIN`); err == nil {
		t.Error("nested BEGIN should error")
	}
	mustExec(t, s, `ROLLBACK`)
	if _, err := s.Exec(`COMMIT`); err == nil {
		t.Error("COMMIT without BEGIN should error")
	}
}

func TestCrashRecoveryEndToEnd(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	mustExec(t, s, `UPDATE emp SET salary = 77777 WHERE id = 7`)
	before, err := s.Query(`SELECT * FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CrashTable("emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RecoverTable("emp"); err != nil {
		t.Fatal(err)
	}
	after, err := s.Query(`SELECT * FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	if !after.SameSet(before) {
		t.Errorf("recovery diverged: %d vs %d rows", after.Len(), before.Len())
	}
	got, err := s.Query(`SELECT salary FROM emp WHERE id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuples[0][0].Int() != 77777 {
		t.Errorf("committed update lost: %v", got.Tuples)
	}
	// Checkpoint shrinks the log.
	pre, err := e.LogBytes("emp")
	if err != nil {
		t.Fatal(err)
	}
	if pre == 0 {
		t.Error("expected non-empty log before checkpoint")
	}
	if err := e.CheckpointTable("emp"); err != nil {
		t.Fatal(err)
	}
	post, err := e.LogBytes("emp")
	if err != nil {
		t.Fatal(err)
	}
	if post >= pre {
		t.Errorf("checkpoint did not shrink the log: %d -> %d", pre, post)
	}
}

func TestDatalog(t *testing.T) {
	e := newEngine(t)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE parent (p VARCHAR, c VARCHAR) FRAGMENT BY HASH(p) INTO 2 FRAGMENTS`)
	mustExec(t, s, `INSERT INTO parent VALUES ('ann','bob'), ('bob','cat'), ('cat','dan')`)
	if err := e.RegisterRules(`
		ancestor(X, Y) :- parent(X, Y).
		ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
	`); err != nil {
		t.Fatal(err)
	}
	rel, err := e.DatalogQuery(s, `ancestor('ann', X)`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 { // bob, cat, dan
		t.Errorf("descendants = %v", rel.Tuples)
	}
	// Rules + queries in one program.
	answers, err := e.DatalogProgram(s, `
		sibling_free(X) :- parent(X, Y).
		?- sibling_free(X).
		?- ancestor(X, 'dan').
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("answers = %d", len(answers))
	}
	if answers[1].Len() != 3 { // ann, bob, cat
		t.Errorf("ancestors of dan = %v", answers[1].Tuples)
	}
	// Registering queries errors.
	if err := e.RegisterRules(`?- parent(X, Y).`); err == nil {
		t.Error("RegisterRules should reject queries")
	}
	// Unknown predicate errors.
	if _, err := e.DatalogQuery(s, `nosuch(X)`); err == nil {
		t.Error("unknown predicate should error")
	}
	e.ClearRules()
	if _, err := e.DatalogQuery(s, `ancestor('ann', X)`); err == nil {
		t.Error("cleared rules should make ancestor unknown")
	}
}

func TestConcurrentSessions(t *testing.T) {
	e := newEngine(t)
	setupEmp(t, e)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for j := 0; j < 5; j++ {
				if _, err := s.Query(`SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept`); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	// Two writer sessions too.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for j := 0; j < 5; j++ {
				sql := fmt.Sprintf(`UPDATE emp SET salary = salary + 1 WHERE id = %d`, i*10+j)
				if _, err := s.Exec(sql); err != nil && !strings.Contains(err.Error(), "deadlock") {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestErrorPaths(t *testing.T) {
	e := newEngine(t)
	s := e.NewSession()
	if _, err := s.Exec(`SELECT * FROM missing`); err == nil {
		t.Error("missing table should error")
	}
	if _, err := s.Exec(`CREATE TABLE t (x INT) FRAGMENT BY HASH(nope) INTO 2 FRAGMENTS`); err == nil {
		t.Error("bad frag column should error")
	}
	mustExec(t, s, `CREATE TABLE t (x INT, PRIMARY KEY (x))`)
	if _, err := s.Exec(`CREATE TABLE t (y INT)`); err == nil {
		t.Error("duplicate table should error")
	}
	if _, err := s.Exec(`INSERT INTO t VALUES (1, 2)`); err == nil {
		t.Error("arity mismatch should error")
	}
	if _, err := s.Exec(`INSERT INTO t (nope) VALUES (1)`); err == nil {
		t.Error("bad column list should error")
	}
	if _, err := s.Exec(`SELECT nope FROM t`); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := s.Exec(`SELECT x, COUNT(*) FROM t`); err == nil {
		t.Error("non-grouped column with aggregate should error")
	}
	if _, err := s.Exec(`UPDATE t SET nope = 1`); err == nil {
		t.Error("bad SET column should error")
	}
	if _, err := s.Exec(`DROP TABLE missing`); err == nil {
		t.Error("dropping a missing table should error")
	}
	mustExec(t, s, `DROP TABLE t`)
	if _, err := s.Exec(`SELECT * FROM t`); err == nil {
		t.Error("dropped table should be gone")
	}
}

func TestSimTimeReported(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	res := mustExec(t, s, `SELECT COUNT(*) AS n FROM emp`)
	if res.SimTime <= 0 {
		t.Errorf("SimTime = %v", res.SimTime)
	}
	if res.WallTime <= 0 {
		t.Errorf("WallTime = %v", res.WallTime)
	}
	if res.Plan == "" {
		t.Error("plan missing")
	}
}

func TestInsertWithColumnListAndNulls(t *testing.T) {
	e := newEngine(t)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE t (a INT, b VARCHAR, c FLOAT)`)
	mustExec(t, s, `INSERT INTO t (a) VALUES (1)`)
	rel, err := s.Query(`SELECT * FROM t WHERE b IS NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || !rel.Tuples[0][1].IsNull() || !rel.Tuples[0][2].IsNull() {
		t.Errorf("null defaults = %v", rel.Tuples)
	}
}

func TestValueExprsInSelect(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	rel, err := s.Query(`SELECT id, salary * 2 AS double, abs(salary - 300) AS dist FROM emp WHERE id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	row := rel.Tuples[0]
	if row[1].Int() != 60 || row[2].Int() != 270 {
		t.Errorf("computed row = %v", row)
	}
}

// TestInListWithNull: IN follows SQL's three-valued logic — a NULL in the
// list makes a non-member UNKNOWN, so NOT IN (1, NULL) keeps no row and IN
// (1, NULL) only the member, in a filter and in a computed column.
func TestInListWithNull(t *testing.T) {
	e := newEngine(t)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE t (id INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 2 FRAGMENTS`)
	mustExec(t, s, `INSERT INTO t VALUES (0), (1), (2), (3)`)
	for _, c := range []struct {
		sql  string
		want int
	}{
		{`SELECT id FROM t WHERE id NOT IN (1, NULL)`, 0},
		{`SELECT id FROM t WHERE NOT (id IN (1, NULL))`, 0},
		{`SELECT id FROM t WHERE id IN (1, NULL)`, 1},
		{`SELECT id FROM t WHERE id NOT IN (1)`, 3},
	} {
		rel, err := s.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if rel.Len() != c.want {
			t.Errorf("%s = %v, want %d rows", c.sql, rel.Tuples, c.want)
		}
	}
	rel, err := s.Query(`SELECT id, id NOT IN (1, NULL) AS x FROM t ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rel.Tuples {
		if member := row[0].Int() == 1; member && (row[1].IsNull() || row[1].Bool()) || !member && !row[1].IsNull() {
			t.Errorf("%v NOT IN (1, NULL) = %v", row[0], row[1])
		}
	}
}

// TestIntegerOverflowRaises: INT arithmetic that leaves int64 is an error,
// in a computed column and in a filter, on exactly the rows that overflow.
func TestIntegerOverflowRaises(t *testing.T) {
	e := newEngine(t)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE t (id INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 2 FRAGMENTS`)
	mustExec(t, s, `INSERT INTO t VALUES (0), (1), (2), (3)`)
	for _, sql := range []string{
		`SELECT id + 9223372036854775807 FROM t`,
		`SELECT id FROM t WHERE id - 9223372036854775807 - 2 > 0`,
		`SELECT id * 4611686018427387904 FROM t`,
		`SELECT -(id - 9223372036854775807 - 1) FROM t`,
	} {
		if rel, err := s.Query(sql); err == nil || !strings.Contains(err.Error(), "integer out of range") {
			t.Errorf("%s = %v, %v; want an integer out of range error", sql, rel, err)
		}
	}
	rel, err := s.Query(`SELECT id + 9223372036854775807 AS x FROM t WHERE id = 0`)
	if err != nil || rel.Len() != 1 || rel.Tuples[0][0].Int() != 9223372036854775807 {
		t.Errorf("0 + MaxInt64 = %v, %v", rel, err)
	}
	rel, err = s.Query(`SELECT id FROM t WHERE id > 0 AND id - 9223372036854775807 - 2 < 0`)
	if err != nil || rel.Len() != 3 {
		t.Errorf("overflow on a row AND's left side rules out: %v, %v", rel, err)
	}
}

// TestSumLeavingIntRangeRaises: a SUM over INT whose running total leaves
// int64 raises, as INT arithmetic does — aggregated at the coordinator in
// one phase, pushed down to two fragments' partials and their merge, on
// one fragment, and folded through a group-join — and AVG, which adds the
// same values as floats, answers the same on every plan.
func TestSumLeavingIntRangeRaises(t *testing.T) {
	const big = "4611686018427387904" // 2^62
	load := func(e *Engine, frags int) *Session {
		s := e.NewSession()
		mustExec(t, s, fmt.Sprintf(`CREATE TABLE t (id INT, g INT, x INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO %d FRAGMENTS`, frags))
		mustExec(t, s, `INSERT INTO t VALUES (1, 0, `+big+`), (2, 0, `+big+`), (3, 1, `+big+`)`)
		mustExec(t, s, `CREATE TABLE d (id INT, w INT, PRIMARY KEY (id))`)
		mustExec(t, s, `INSERT INTO d VALUES (0, 7), (1, 7)`)
		return s
	}
	for _, c := range []struct {
		name  string
		e     *Engine
		frags int
	}{{"two fragments", newEngine(t), 2}, {"one fragment", newEngine(t), 1}, {"central", centralEngine(t), 2}} {
		s := load(c.e, c.frags)
		for _, sql := range []string{
			`SELECT SUM(x) FROM t`,
			`SELECT g, SUM(x) AS s FROM t GROUP BY g`,
			`SELECT d.w, SUM(t.x) AS s FROM t JOIN d ON t.g = d.id GROUP BY d.w`,
		} {
			if rel, err := s.Query(sql); err == nil || !strings.Contains(err.Error(), "integer out of range") {
				t.Errorf("%s: %s = %v, %v; want an integer out of range error", c.name, sql, rel, err)
			}
		}
		if rel, err := s.Query(`SELECT g, SUM(x) AS s FROM t WHERE id > 1 GROUP BY g`); err != nil || rel.Len() != 2 {
			t.Errorf("%s: a group of one 2^62 each = %v, %v; want two groups", c.name, rel, err)
		}
		rel, err := s.Query(`SELECT AVG(x) AS a FROM t`)
		if err != nil || rel.Len() != 1 || rel.Tuples[0][0].Float() != 1<<62 {
			t.Errorf("%s: AVG(x) = %v, %v; want 2^62", c.name, rel, err)
		}
	}
}

// TestSumOfLaterFragmentOnly: a SUM pushed down to two fragments answers
// the values one fragment holds when the other's partial is NULL — no row
// passed its filter, or its rows held only NULLs — whichever fragment the
// values lie in, global and grouped, over INT and FLOAT.
func TestSumOfLaterFragmentOnly(t *testing.T) {
	s := newEngine(t).NewSession()
	mustExec(t, s, `CREATE TABLE t (id INT, g INT, x INT, y FLOAT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 2 FRAGMENTS`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 0, NULL, NULL), (2, 0, NULL, NULL), (3, 0, NULL, NULL), (4, 0, NULL, NULL), (5, 0, NULL, NULL), (6, 0, NULL, NULL)`)
	for id := 1; id <= 6; id++ {
		mustExec(t, s, fmt.Sprintf(`UPDATE t SET x = 7, y = 7.5 WHERE id = %d`, id))
		for _, sql := range []string{
			`SELECT SUM(x) AS s, SUM(y) AS f FROM t WHERE x > 0`,
			`SELECT SUM(x) AS s, SUM(y) AS f FROM t`,
			`SELECT g, SUM(x) AS s, SUM(y) AS f FROM t GROUP BY g`,
		} {
			rel, err := s.Query(sql)
			if err != nil || rel.Len() != 1 {
				t.Fatalf("row %d holds the values: %s = %v, %v", id, sql, rel, err)
			}
			row := rel.Tuples[0]
			if x, y := row[len(row)-2], row[len(row)-1]; x.IsNull() || x.Int() != 7 || y.IsNull() || y.Float() != 7.5 {
				t.Errorf("row %d holds the values: %s = %v; want 7 and 7.5", id, sql, row)
			}
		}
		mustExec(t, s, fmt.Sprintf(`UPDATE t SET x = NULL, y = NULL WHERE id = %d`, id))
	}
}
