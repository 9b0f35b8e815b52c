package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/value"
)

func intArgs(ns ...int64) []value.Value {
	out := make([]value.Value, len(ns))
	for i, n := range ns {
		out[i] = value.NewInt(n)
	}
	return out
}

func TestPrepareSelectPointQuery(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	ps, err := s.Prepare(`SELECT * FROM emp WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.NumParams(); got != 1 {
		t.Fatalf("NumParams = %d", got)
	}
	for _, id := range []int64{0, 17, 59} {
		rel, err := s.QueryPrepared(ps, intArgs(id))
		if err != nil {
			t.Fatalf("id=%d: %v", id, err)
		}
		if rel.Len() != 1 || rel.Tuples[0][0].Int() != id {
			t.Fatalf("id=%d: got %v", id, rel.Tuples)
		}
	}
	// The prepared plan is the point-query fast path, not Scan→Select.
	res, err := s.ExecPrepared(ps, intArgs(5))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "IndexProbe") {
		t.Errorf("plan does not use the index probe:\n%s", res.Plan)
	}
}

// TestPreparedPointAllocs pins what a prepared pk SELECT allocates on the
// served path, encoded into the caller's buffer: the probe decodes the
// one version from the fragment's slab straight into a batch (its header,
// column list, vectors, one payload array per kind and the string), and
// the root encodes it: 17 allocations, one more than when the probe
// answered with tuples. The bar keeps a later change from fattening the
// point path unseen.
func TestPreparedPointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s := setupEmp(t, newEngine(t))
	ps, err := s.Prepare(`SELECT * FROM emp WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 1024)
	args := intArgs(0)
	key := int64(0)
	const bar = 17
	if n := testing.AllocsPerRun(500, func() {
		key = (key + 7) % 60
		args[0] = value.NewInt(key)
		res, err := s.ExecPreparedTo(buf[:0], ps, args)
		if err != nil || res.Rows.N != 1 {
			t.Fatalf("id %d: %v rows, %v", key, res, err)
		}
	}); n > bar {
		t.Errorf("a served prepared point SELECT allocates %v times, want <= %d", n, bar)
	}
}

// TestPreparedPointUpdateAllocs pins what a prepared autocommit pk UPDATE
// allocates per execution. It compiles once — the SET list and the filter
// bound, the slot kinds inferred — so an execution copies only the two
// bound expressions with its arguments in place: 45 allocations, where
// copying the statement's AST and binding its SET list and filter again
// per execution, and the SET list once more per fragment, took 57.
func TestPreparedPointUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s := setupEmp(t, newEngine(t))
	ps, err := s.Prepare(`UPDATE emp SET salary = salary + ? WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	args := intArgs(1, 0)
	key := int64(0)
	const bar = 45
	n := testing.AllocsPerRun(500, func() {
		key = (key + 7) % 60
		args[1] = value.NewInt(key)
		res, err := s.ExecPrepared(ps, args)
		if err != nil || res.Affected != 1 {
			t.Fatalf("id %d: %v, %v", key, res, err)
		}
	})
	if n > bar {
		t.Errorf("a prepared point UPDATE allocates %v times, want <= %d", n, bar)
	}
}

func TestPrepareDollarParams(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	ps, err := s.Prepare(`SELECT * FROM emp WHERE id = $2 OR id = $1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.NumParams(); got != 2 {
		t.Fatalf("NumParams = %d", got)
	}
	rel, err := s.QueryPrepared(ps, intArgs(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("got %d rows", rel.Len())
	}
	if _, err := s.Prepare(`SELECT * FROM emp WHERE id = $1 OR id = ?`); err == nil {
		t.Error("mixing $n and ? did not error")
	}
}

func TestPreparedDML(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	ins, err := s.Prepare(`INSERT INTO emp VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecPrepared(ins, []value.Value{
		value.NewInt(100), value.NewString("eng"), value.NewInt(12345)}); err != nil {
		t.Fatal(err)
	}
	up, err := s.Prepare(`UPDATE emp SET salary = ? WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecPrepared(up, intArgs(777, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("UPDATE affected %d", res.Affected)
	}
	rel, err := s.Query(`SELECT salary FROM emp WHERE id = 100`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0][0].Int() != 777 {
		t.Fatalf("after update: %v", rel.Tuples)
	}
	del, err := s.Prepare(`DELETE FROM emp WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.ExecPrepared(del, intArgs(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("DELETE affected %d", res.Affected)
	}
}

func TestPreparedWrongArity(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	ps, err := s.Prepare(`SELECT * FROM emp WHERE id = ? AND salary > ?`)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]value.Value{nil, intArgs(1), intArgs(1, 2, 3)} {
		if _, err := s.ExecPrepared(ps, args); err == nil {
			t.Errorf("arity %d accepted, want error", len(args))
		} else if !strings.Contains(err.Error(), "parameters") {
			t.Errorf("arity %d: unexpected error %v", len(args), err)
		}
	}
}

func TestPreparedTypeMismatch(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	ps, err := s.Prepare(`SELECT * FROM emp WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	// A string can never bind an INT slot.
	if _, err := s.ExecPrepared(ps, []value.Value{value.NewString("x")}); err == nil {
		t.Error("string bound to INT slot without error")
	}
	// Numeric binds behave like SQL literals: a fractional float on an
	// INT key is an empty result, a lossless one coerces and probes.
	rel, err := s.QueryPrepared(ps, []value.Value{value.NewFloat(1.5)})
	if err != nil {
		t.Fatalf("fractional float: %v", err)
	}
	if rel.Len() != 0 {
		t.Fatalf("id = 1.5 matched %d rows", rel.Len())
	}
	rel, err = s.QueryPrepared(ps, []value.Value{value.NewFloat(7)})
	if err != nil {
		t.Fatalf("lossless float: %v", err)
	}
	if rel.Len() != 1 || rel.Tuples[0][0].Int() != 7 {
		t.Fatalf("float-coerced probe: %v", rel.Tuples)
	}
	// Range comparisons accept fractional binds like their literal form.
	gt, err := s.Prepare(`SELECT COUNT(*) AS n FROM emp WHERE salary > ?`)
	if err != nil {
		t.Fatal(err)
	}
	relF, err := s.QueryPrepared(gt, []value.Value{value.NewFloat(99.5)})
	if err != nil {
		t.Fatalf("fractional range bind: %v", err)
	}
	relL, err := s.Query(`SELECT COUNT(*) AS n FROM emp WHERE salary > 99.5`)
	if err != nil {
		t.Fatal(err)
	}
	if relF.Tuples[0][0].Int() != relL.Tuples[0][0].Int() {
		t.Fatalf("prepared %v vs literal %v", relF.Tuples, relL.Tuples)
	}
	// INSERT slots are typed from the table schema.
	ins, err := s.Prepare(`INSERT INTO emp VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecPrepared(ins, []value.Value{
		value.NewString("nope"), value.NewString("eng"), value.NewInt(1)}); err == nil {
		t.Error("string bound to INT insert slot without error")
	}
}

func TestPreparedNullBinds(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	// `id = NULL` never matches.
	ps, err := s.Prepare(`SELECT * FROM emp WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := s.QueryPrepared(ps, []value.Value{value.Null})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Fatalf("id = NULL matched %d rows", rel.Len())
	}
	// NULL inserts land as NULL.
	ins, err := s.Prepare(`INSERT INTO emp VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecPrepared(ins, []value.Value{
		value.NewInt(200), value.Null, value.Null}); err != nil {
		t.Fatal(err)
	}
	rel, err = s.Query(`SELECT dept FROM emp WHERE id = 200`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || !rel.Tuples[0][0].IsNull() {
		t.Fatalf("NULL insert read back %v", rel.Tuples)
	}
}

// TestPreparedReplanAfterDDL drops and recreates the target table under
// live PreparedStmts: the catalog version counter must invalidate the
// cached plans, and the re-prepared statements must see the new table. A
// stale plan would route to dead fragment managers or the old schema, and
// a compiled write's stale column indexes would write the wrong column.
func TestPreparedReplanAfterDDL(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	ps, err := s.Prepare(`SELECT * FROM emp WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	up, err := s.Prepare(`UPDATE emp SET salary = ? WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := s.Prepare(`INSERT INTO emp VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if rel, err := s.QueryPrepared(ps, intArgs(1)); err != nil || rel.Len() != 1 {
		t.Fatalf("before DDL: %v / %v", rel, err)
	}
	if res, err := s.ExecPrepared(up, intArgs(777, 1)); err != nil || res.Affected != 1 {
		t.Fatalf("UPDATE before DDL: %v / %v", res, err)
	}
	if _, err := s.ExecPrepared(ins, []value.Value{value.NewInt(100), value.NewString("eng"), value.NewInt(5)}); err != nil {
		t.Fatalf("INSERT before DDL: %v", err)
	}
	mustExec(t, s, `DROP TABLE emp`)
	// The old plan's fragments are gone; execution must replan, and the
	// replan must fail cleanly because the table no longer exists.
	if _, err := s.QueryPrepared(ps, intArgs(1)); err == nil ||
		!strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("after DROP: err = %v", err)
	}
	if _, err := s.ExecPrepared(up, intArgs(777, 1)); err == nil ||
		!strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("UPDATE after DROP: err = %v", err)
	}
	// Recreate with the columns in another order, one more of them and
	// different contents; the same handles must now see the new schema:
	// salary is column 0 and id column 3, where id and salary were 0 and 2.
	mustExec(t, s, `CREATE TABLE emp (salary INT, dept VARCHAR, bonus INT, id INT, PRIMARY KEY (id))
		FRAGMENT BY HASH(id) INTO 2 FRAGMENTS`)
	mustExec(t, s, `INSERT INTO emp VALUES (10, 'eng', 99, 1)`)
	rel, err := s.QueryPrepared(ps, intArgs(1))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Schema.Len() != 4 {
		t.Fatalf("after recreate: %d rows, schema %s", rel.Len(), rel.Schema)
	}
	if res, err := s.ExecPrepared(up, intArgs(777, 1)); err != nil || res.Affected != 1 {
		t.Fatalf("UPDATE after recreate: %v / %v", res, err)
	}
	rel, err = s.Query(`SELECT salary, dept, bonus, id FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	if want := value.NewTuple(value.NewInt(777), value.NewString("eng"), value.NewInt(99), value.NewInt(1)); rel.Len() != 1 || rel.Tuples[0].String() != want.String() {
		t.Fatalf("UPDATE after recreate left %v, want %v", rel.Tuples, want)
	}
	if _, err := s.ExecPrepared(ins, []value.Value{value.NewInt(2), value.NewString("ops"), value.NewInt(5)}); err == nil ||
		!strings.Contains(err.Error(), "INSERT row has 3 values for 4 columns") {
		t.Fatalf("3-value INSERT after recreate: err = %v", err)
	}
}

// TestPlanCacheInvalidationOnDDL exercises the engine plan cache (the
// unprepared path): a cached SELECT plan must not survive a DROP+CREATE
// of its table. With a stale plan this query would return the old
// table's contents (or crash on dead fragments).
func TestPlanCacheInvalidationOnDDL(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	rel, err := s.Query(`SELECT * FROM emp WHERE id = 3`)
	if err != nil || rel.Len() != 1 {
		t.Fatalf("warm the cache: %v / %v", rel, err)
	}
	if e.plans.Len() == 0 {
		t.Fatal("plan cache did not capture the statement")
	}
	mustExec(t, s, `DROP TABLE emp`)
	mustExec(t, s, `CREATE TABLE emp (id INT, dept VARCHAR, salary INT, PRIMARY KEY (id))`)
	mustExec(t, s, `INSERT INTO emp VALUES (3, 'new', 1)`)
	rel, err = s.Query(`SELECT dept FROM emp WHERE id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0][0].Str() != "new" {
		t.Fatalf("stale plan survived DDL: %v", rel.Tuples)
	}
}

// TestPlanCacheSharesShapes verifies that statements differing only in
// literal values share one cached plan.
func TestPlanCacheSharesShapes(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	before := e.plans.Len()
	for _, q := range []string{
		`SELECT * FROM emp WHERE id = 1`,
		`SELECT * FROM emp WHERE id = 2`,
		`select * from emp WHERE id = 40`,
	} {
		if _, err := s.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if got := e.plans.Len() - before; got != 1 {
		t.Errorf("3 same-shape queries created %d cache entries, want 1", got)
	}
	// Different shapes get their own entries.
	if _, err := s.Query(`SELECT * FROM emp WHERE salary > 100`); err != nil {
		t.Fatal(err)
	}
	if got := e.plans.Len() - before; got != 2 {
		t.Errorf("cache entries = %d, want 2", got)
	}
}

// TestPlanCacheCorrectness runs shape-shared statements with clauses the
// normalizer treats specially (LIKE, IN, LIMIT, negative literals, JOIN
// ON literals, quotes inside strings) and checks them against the
// uncached route (parse and optimize every time): a SELECT's rows on the
// same session, and a DML statement's Affected count and the rows it
// leaves behind on a twin engine.
func TestPlanCacheCorrectness(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	twin := setupEmp(t, newEngine(t))
	uncached := func(s *Session, q string) (*Result, error) {
		r, err := s.routeParsed(q)
		return s.execRouted(s.startClock(), r, err, nil)
	}
	queries := []string{
		`SELECT * FROM emp WHERE id = 7`,
		`SELECT * FROM emp WHERE salary > -10 AND salary < 100`,
		`SELECT * FROM emp WHERE salary + -5 > 2.5`,
		`SELECT * FROM emp WHERE dept LIKE 'e%'`,
		`SELECT * FROM emp WHERE id IN (1, 2, 3)`,
		`SELECT id FROM emp WHERE salary > 100 ORDER BY id LIMIT 5`,
		`SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept HAVING n > 10`,
		`SELECT e.id, d.budget FROM emp e JOIN dept d ON e.dept = d.name WHERE e.id = 4`,
		`SELECT e.id, d.budget FROM emp e JOIN dept d ON e.dept = d.name AND d.budget > 300`,
		`SELECT salary * 2 AS twice FROM emp WHERE id = 9`,
		`SELECT * FROM emp WHERE dept <> 'o''x' AND id < 5`,
		`SELECT * FROM emp WHERE id = -(-5)`,
		`SELECT * FROM emp WHERE id = - -7`,
	}
	// The operators of a plan, one a line, without their arguments (a
	// cached plan shows $n where the uncached one shows the literal).
	ops := func(plan string) []string {
		var out []string
		for _, line := range strings.Split(plan, "\n") {
			op, _, _ := strings.Cut(strings.TrimSpace(line), "(")
			out = append(out, op)
		}
		return out
	}
	for _, q := range queries {
		// Twice through the cache: first compiles, second hits.
		for pass := 0; pass < 2; pass++ {
			got, err := s.Exec(q)
			if err != nil {
				t.Fatalf("pass %d %s: %v", pass, q, err)
			}
			want, err := uncached(s, q)
			if err != nil {
				t.Fatalf("uncached %s: %v", q, err)
			}
			if !got.Rel.SameBag(want.Rel) {
				t.Errorf("pass %d %s: cached rows %v, uncached %v", pass, q, got.Rel.Tuples, want.Rel.Tuples)
			}
			if !slices.Equal(ops(got.Plan), ops(want.Plan)) {
				t.Errorf("pass %d %s: cached plan\n%s\nuncached plan\n%s", pass, q, got.Plan, want.Plan)
			}
		}
	}
	dml := []string{
		`INSERT INTO emp VALUES (100, 'o''x', 7), (101, 'eng', -5)`,
		`UPDATE emp SET salary = salary + -5 WHERE dept = 'o''x'`,
		`UPDATE emp SET salary = salary * 2 WHERE id > 50 AND salary < 2.5`,
		`UPDATE emp SET dept = 'it''s' WHERE id IN (1, 2) OR salary = -5`,
		`DELETE FROM emp WHERE dept = 'o''x' AND salary > -10`,
		`DELETE FROM emp WHERE id = 7`,
	}
	for _, q := range dml {
		for pass := 0; pass < 2; pass++ {
			got, gerr := s.Exec(q)
			want, werr := uncached(twin, q)
			if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
				t.Fatalf("pass %d %s: cached err %v, uncached err %v", pass, q, gerr, werr)
			}
			if gerr == nil && got.Affected != want.Affected {
				t.Errorf("pass %d %s: cached affected %d, uncached %d", pass, q, got.Affected, want.Affected)
			}
			left, err := uncached(s, `SELECT * FROM emp`)
			if err != nil {
				t.Fatal(err)
			}
			right, err := uncached(twin, `SELECT * FROM emp`)
			if err != nil {
				t.Fatal(err)
			}
			if !left.Rel.SameBag(right.Rel) {
				t.Fatalf("pass %d %s: cached engine holds %v, uncached %v", pass, q, left.Rel.Tuples, right.Rel.Tuples)
			}
		}
	}
}

// TestPlanCacheMixedNumericLiterals: caching must never change a legal
// statement's outcome. `id = 1.5` on an INT key is an empty result
// (not a bind error), and `id = 2.0` matches row 2 under SQL numeric
// comparison — even when both hit the plan cached for `id = 7`.
func TestPlanCacheMixedNumericLiterals(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	if _, err := s.Query(`SELECT * FROM emp WHERE id = 7`); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Query(`SELECT * FROM emp WHERE id = 1.5`)
	if err != nil {
		t.Fatalf("id = 1.5 errored through the plan cache: %v", err)
	}
	if rel.Len() != 0 {
		t.Fatalf("id = 1.5 matched %d rows", rel.Len())
	}
	rel, err = s.Query(`SELECT * FROM emp WHERE id = 2.0`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0][0].Int() != 2 {
		t.Fatalf("id = 2.0: %v", rel.Tuples)
	}
	// Select-list literals keep their kinds through the cache: a lifted
	// projection literal would type the output column as NULL.
	res, err := s.Exec(`SELECT salary * 2 AS twice FROM emp WHERE id = 9`)
	if err != nil {
		t.Fatal(err)
	}
	if k := res.Rel.Schema.Column(0).Kind; k != value.KindInt {
		t.Fatalf("cached projection column kind = %s, want INTEGER", k)
	}
	// DML too: a FLOAT literal into an INT column must fail identically
	// whether or not the statement shape is cached — the cache must not
	// coerce what Conform would reject.
	if _, err := s.Exec(`INSERT INTO emp VALUES (900, 'x', 1)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO emp VALUES (901.0, 'x', 1)`); err == nil ||
		!strings.Contains(err.Error(), "FLOAT") {
		t.Fatalf("float INSERT through cache: %v", err)
	}
}

// TestPrepareHugeDollarOrdinal: a hostile `$n` must not size server
// memory; the parser caps the ordinal at the wire format's uint16.
func TestPrepareHugeDollarOrdinal(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	for _, q := range []string{
		`SELECT * FROM emp WHERE id = $9000000000000000000`,
		`SELECT * FROM emp WHERE id = $70000`,
	} {
		if _, err := s.Prepare(q); err == nil ||
			!strings.Contains(err.Error(), "parameter number") {
			t.Errorf("Prepare(%q) = %v, want ordinal error", q, err)
		}
	}
	// The cap itself is usable.
	if _, err := s.Prepare(`SELECT * FROM emp WHERE id = $65535`); err != nil {
		t.Errorf("$65535 rejected: %v", err)
	}
}

// TestExecRejectsPlaceholders: raw Exec of a parameterized statement
// must fail with a clear message rather than executing with NULLs.
func TestExecRejectsPlaceholders(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	if _, err := s.Exec(`SELECT * FROM emp WHERE id = ?`); err == nil ||
		!strings.Contains(err.Error(), "placeholder") {
		t.Errorf("Exec with ? gave %v", err)
	}
}

// TestPreparedConcurrent hammers shared PreparedStmts — a SELECT and a
// write — from many sessions while DDL churns another table, exercising
// the replan lock and the immutable compiled forms under -race.
func TestPreparedConcurrent(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	ps, err := s.Prepare(`SELECT * FROM emp WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	up, err := s.Prepare(`UPDATE emp SET salary = salary + ? WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			sess := e.NewSession()
			defer sess.Close()
			for i := 0; i < 50; i++ {
				id := int64((w*50 + i) % 60)
				rel, err := sess.QueryPrepared(ps, intArgs(id))
				if err != nil {
					done <- err
					return
				}
				if rel.Len() != 1 {
					done <- errRows(rel.Len())
					return
				}
				res, err := sess.ExecPrepared(up, intArgs(1, id))
				if err != nil {
					done <- err
					return
				}
				if res.Affected != 1 {
					done <- errRows(res.Affected)
					return
				}
			}
			done <- nil
		}(w)
	}
	// Concurrent DDL on an unrelated table bumps the catalog version,
	// forcing replans mid-flight.
	for i := 0; i < 5; i++ {
		mustExec(t, s, `CREATE TABLE churn (x INT)`)
		mustExec(t, s, `DROP TABLE churn`)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Every one of the 400 increments landed once: the salaries began at
	// 0, 10, …, 590.
	rel, err := s.Query(`SELECT SUM(salary) AS total FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Tuples[0][0].Int(); got != 17700+400 {
		t.Fatalf("salaries sum to %d after 400 increments, want %d", got, 17700+400)
	}
}

type errRows int

func (e errRows) Error() string { return "unexpected row count" }

// TestNaNFiltersOrderLikeOrderBy: a NaN inserted through a prepared
// statement compares in a WHERE clause the way ORDER BY sorts it — equal
// to itself and below every number — against a literal bound and against
// a NaN bound given as a parameter.
func TestNaNFiltersOrderLikeOrderBy(t *testing.T) {
	e := newEngine(t)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE m (id INT, x FLOAT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 2 FRAGMENTS`)
	ins, err := s.Prepare(`INSERT INTO m VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for id, x := range []float64{math.NaN(), -1, 0.5, 2} {
		if _, err := s.ExecPrepared(ins, []value.Value{value.NewInt(int64(id)), value.NewFloat(x)}); err != nil {
			t.Fatal(err)
		}
	}
	ids := func(sql string, args ...value.Value) []int64 {
		t.Helper()
		ps, err := s.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := s.QueryPrepared(ps, args)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var out []int64
		for _, tup := range rel.Tuples {
			out = append(out, tup[0].Int())
		}
		return out
	}
	if got := ids(`SELECT id, x FROM m ORDER BY x`); !slices.Equal(got, []int64{0, 1, 2, 3}) {
		t.Fatalf("ORDER BY x = %v, want the NaN first", got)
	}
	nan := value.NewFloat(math.NaN())
	for _, c := range []struct {
		sql  string
		args []value.Value
		want []int64
	}{
		{`SELECT id FROM m WHERE x < 1.0 ORDER BY id`, nil, []int64{0, 1, 2}},
		{`SELECT id FROM m WHERE x >= 1.0 ORDER BY id`, nil, []int64{3}},
		{`SELECT id FROM m WHERE x = ? ORDER BY id`, []value.Value{nan}, []int64{0}},
		{`SELECT id FROM m WHERE x < ? ORDER BY id`, []value.Value{nan}, nil},
		{`SELECT id FROM m WHERE x > ? ORDER BY id`, []value.Value{nan}, []int64{1, 2, 3}},
	} {
		if got := ids(c.sql, c.args...); !slices.Equal(got, c.want) {
			t.Errorf("%s %v = %v, want %v", c.sql, c.args, got, c.want)
		}
	}
}
