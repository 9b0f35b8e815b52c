package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// bindUser authenticates name through the catalog and binds a fresh
// session to it.
func bindUser(t *testing.T, e *Engine, name, secret string) *Session {
	t.Helper()
	u, err := e.Catalog().Authenticate(name, secret)
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	t.Cleanup(s.Close)
	s.SetUser(u)
	return s
}

func TestAdminStatements(t *testing.T) {
	e := newEngine(t)
	admin := setupEmp(t, e)
	mustExec(t, admin, `CREATE USER t1 PASSWORD 'pw' PRIORITY batch MAX_CONCURRENT 3 MEM_BUDGET 1048576`)
	u, err := e.Catalog().GetUser("t1")
	if err != nil {
		t.Fatal(err)
	}
	if u.Priority != catalog.PriorityBatch || u.MaxConcurrent != 3 || u.MemBudget != 1<<20 || u.Admin {
		t.Errorf("CREATE USER attributes not applied: %+v", u)
	}
	mustExec(t, admin, `GRANT SELECT, INSERT ON emp TO t1`)
	if !u.Can("emp", catalog.PrivSelect) || !u.Can("emp", catalog.PrivInsert) || u.Can("emp", catalog.PrivDelete) {
		t.Errorf("GRANT privilege list misapplied: %v", u.Grants())
	}
	mustExec(t, admin, `REVOKE INSERT ON emp FROM t1`)
	if u.Can("emp", catalog.PrivInsert) {
		t.Errorf("REVOKE did not bite")
	}

	res := mustExec(t, admin, `SHOW USERS`)
	if res.Rel == nil || res.Rel.Len() != 1 {
		t.Fatalf("SHOW USERS rows = %v", res.Rel)
	}
	if rendered := res.Rel.Tuples[0][5].Str(); !strings.Contains(rendered, "SELECT ON emp") {
		t.Errorf("SHOW USERS grants column = %q", rendered)
	}

	// SHOW ADMISSION renders even with admission off.
	res = mustExec(t, admin, `SHOW ADMISSION`)
	if res.Msg != "admission control off" {
		t.Errorf("SHOW ADMISSION msg = %q", res.Msg)
	}

	mustExec(t, admin, `DROP USER t1`)
	if _, err := e.Catalog().GetUser("t1"); err == nil {
		t.Errorf("DROP USER did not bite")
	}
}

func TestAdminStatementsRequireAdmin(t *testing.T) {
	e := newEngine(t)
	admin := setupEmp(t, e)
	mustExec(t, admin, `CREATE USER plain PASSWORD 'pw'`)
	mustExec(t, admin, `CREATE USER root PASSWORD 'pw' ADMIN`)

	plain := bindUser(t, e, "plain", "pw")
	for _, sql := range []string{
		`CREATE USER evil PASSWORD 'x'`,
		`DROP USER root`,
		`GRANT ALL ON emp TO plain`,
		`REVOKE ALL ON emp FROM root`,
		`SHOW ADMISSION`,
		`SHOW USERS`,
		`PROMOTE`,
	} {
		if _, err := plain.Exec(sql); !errors.Is(err, ErrAuth) {
			t.Errorf("Exec(%q) by non-admin err = %v, want ErrAuth", sql, err)
		}
	}

	// An admin user (not just local sessions) may administer.
	root := bindUser(t, e, "root", "pw")
	mustExec(t, root, `GRANT SELECT ON emp TO plain`)
}

// TestAdminStatementsAreSQL: the session and administration statements
// take the lexer and parser every statement takes, so a comment or an
// escaped quote works in them, they can be prepared and executed like
// any other statement, and an out-of-range number is refused instead of
// read as something else.
func TestAdminStatementsAreSQL(t *testing.T) {
	e := newEngine(t)
	admin := setupEmp(t, e)
	mustExec(t, admin, `CREATE USER o PASSWORD 'it''s' -- an escaped quote`)
	bindUser(t, e, "o", "it's")
	if res := mustExec(t, admin, `SHOW USERS -- note`); res.Rel == nil || res.Rel.Len() != 1 {
		t.Fatalf("SHOW USERS with a comment = %v", res.Rel)
	}

	for _, sql := range []string{
		`SHOW USERS`,
		`GRANT SELECT, INSERT ON emp TO o`,
		`REVOKE INSERT ON emp FROM o`,
		`SET STATEMENT_TIMEOUT = 25`,
		`SHOW ADMISSION`,
	} {
		ps, err := admin.Prepare(sql)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", sql, err)
		}
		got := describeResult(admin.ExecPrepared(ps, nil))
		if want := describeResult(admin.Exec(sql)); got != want {
			t.Errorf("%s\n prepared: %s\n     Exec: %s", sql, got, want)
		}
	}

	for _, sql := range []string{
		`SET STATEMENT_TIMEOUT = 99999999999999999999`, // past int64
		`SET STATEMENT_TIMEOUT = 9223372036855`,        // past time.Duration
	} {
		if res, err := admin.Exec(sql); err == nil {
			t.Errorf("Exec(%q) = %q, want an error", sql, res.Msg)
		}
	}
	if admin.stmtTimeout != 25*time.Millisecond {
		t.Errorf("statement timeout = %v after refused SETs, want 25ms", admin.stmtTimeout)
	}
}

// TestAdminWordsStayColumnNames: the administration statements' words are
// not reserved, so a table may still use them as column names.
func TestAdminWordsStayColumnNames(t *testing.T) {
	e := newEngine(t)
	s := e.NewSession()
	defer s.Close()
	mustExec(t, s, `CREATE TABLE t (user INT, admin INT, priority INT, PRIMARY KEY (user))`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 2, 3), (4, 5, 6)`)
	rel, err := s.Query(`SELECT user, admin, priority FROM t WHERE user = 4`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0][1].Int() != 5 || rel.Tuples[0][2].Int() != 6 {
		t.Fatalf("SELECT user, admin, priority = %v", rel)
	}
}

// TestPasswordsStayOutOfPlanCache: a CREATE USER statement never becomes
// a plan-cache entry, so its password is in no cache key.
func TestPasswordsStayOutOfPlanCache(t *testing.T) {
	e := newEngine(t)
	s := e.NewSession()
	defer s.Close()
	before := e.plans.Len()
	for i, sql := range []string{
		`CREATE USER u1 PASSWORD 'hunter2'`,
		`CREATE USER u2 PASSWORD 'hunter3' PRIORITY batch`,
	} {
		mustExec(t, s, sql)
		if _, _, ok := sqlparse.Normalize(sql); ok {
			t.Errorf("statement %d has a plan-cache key", i)
		}
	}
	ps, err := s.Prepare(`CREATE USER u3 PASSWORD 'hunter4'`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecPrepared(ps, nil); err != nil {
		t.Fatal(err)
	}
	if got := e.plans.Len(); got != before {
		t.Errorf("plan cache grew from %d to %d entries over CREATE USER", before, got)
	}
}

func TestGrantEnforcement(t *testing.T) {
	e := newEngine(t)
	admin := setupEmp(t, e)
	mustExec(t, admin, `CREATE USER t1 PASSWORD 'pw'`)
	mustExec(t, admin, `GRANT SELECT ON emp TO t1`)

	s := bindUser(t, e, "t1", "pw")
	if _, err := s.Query(`SELECT id FROM emp WHERE id = 1`); err != nil {
		t.Fatalf("granted SELECT failed: %v", err)
	}
	// Each missing privilege is refused with the coded auth error.
	for _, sql := range []string{
		`INSERT INTO emp VALUES (999, 'eng', 1)`,
		`UPDATE emp SET salary = 0 WHERE id = 1`,
		`DELETE FROM emp WHERE id = 1`,
		`SELECT name FROM dept`,
		`SELECT e.id FROM emp e, dept d WHERE e.dept = d.name`,
		`DROP TABLE emp`,
	} {
		if _, err := s.Exec(sql); !errors.Is(err, ErrAuth) {
			t.Errorf("Exec(%q) err = %v, want ErrAuth", sql, err)
		}
	}
	// A write the compiler would refuse — an unknown table or column — is
	// refused for the missing grant first, on the plan-cache miss and on
	// every execution after it.
	for _, sql := range []string{
		`UPDATE nosuch SET a = 1 WHERE id = 1`,
		`UPDATE emp SET nosuch = 1 WHERE id = 1`,
		`DELETE FROM nosuch WHERE id = 2`,
	} {
		for pass := 0; pass < 2; pass++ {
			if _, err := s.Exec(sql); !errors.Is(err, ErrAuth) {
				t.Errorf("pass %d Exec(%q) err = %v, want ErrAuth", pass, sql, err)
			}
		}
	}

	// The creator of a table owns it.
	mustExec(t, s, `CREATE TABLE mine (k INT, PRIMARY KEY (k))`)
	mustExec(t, s, `INSERT INTO mine VALUES (1)`)
	mustExec(t, s, `DROP TABLE mine`)
}

// TestRevokeBitesCachedPlan pins the per-execution (not per-plan)
// grant check: the same statement text, served from the shared plan
// cache, must be refused the moment the grant is revoked — even though
// the cached plan predates the revocation.
func TestRevokeBitesCachedPlan(t *testing.T) {
	e := newEngine(t)
	admin := setupEmp(t, e)
	mustExec(t, admin, `CREATE USER t1 PASSWORD 'pw'`)
	mustExec(t, admin, `GRANT SELECT ON emp TO t1`)

	s := bindUser(t, e, "t1", "pw")
	const q = `SELECT id FROM emp WHERE id = 7`
	for i := 0; i < 3; i++ { // warm the plan cache
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, admin, `REVOKE SELECT ON emp FROM t1`)
	if _, err := s.Exec(q); !errors.Is(err, ErrAuth) {
		t.Fatalf("revoked SELECT via cached plan err = %v, want ErrAuth", err)
	}
	// Prepared statements re-check on every execution too.
	mustExec(t, admin, `GRANT SELECT ON emp TO t1`)
	ps, err := s.Prepare(`SELECT id FROM emp WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryPrepared(ps, []value.Value{value.NewInt(7)}); err != nil {
		t.Fatalf("granted prepared exec: %v", err)
	}
	mustExec(t, admin, `REVOKE SELECT ON emp FROM t1`)
	if _, err := s.QueryPrepared(ps, []value.Value{value.NewInt(7)}); !errors.Is(err, ErrAuth) {
		t.Fatalf("revoked prepared exec err = %v, want ErrAuth", err)
	}

	// A compiled write checks its grant on every execution too: a warmed
	// UPDATE shape and a prepared DELETE.
	mustExec(t, admin, `GRANT UPDATE ON emp TO t1`)
	const up = `UPDATE emp SET salary = 0 WHERE id = 7`
	for i := 0; i < 3; i++ {
		if _, err := s.Exec(up); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, admin, `REVOKE UPDATE ON emp FROM t1`)
	if _, err := s.Exec(up); !errors.Is(err, ErrAuth) {
		t.Fatalf("revoked UPDATE via cached plan err = %v, want ErrAuth", err)
	}
	mustExec(t, admin, `GRANT DELETE ON emp TO t1`)
	del, err := s.Prepare(`DELETE FROM emp WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.ExecPrepared(del, []value.Value{value.NewInt(7)}); err != nil || res.Affected != 1 {
		t.Fatalf("granted prepared DELETE: %v, %v", res, err)
	}
	mustExec(t, admin, `REVOKE DELETE ON emp FROM t1`)
	if _, err := s.ExecPrepared(del, []value.Value{value.NewInt(8)}); !errors.Is(err, ErrAuth) {
		t.Fatalf("revoked prepared DELETE err = %v, want ErrAuth", err)
	}
}

func TestDatalogGrantEnforcement(t *testing.T) {
	e := newEngine(t)
	admin := setupEmp(t, e)
	mustExec(t, admin, `CREATE USER t1 PASSWORD 'pw'`)

	s := bindUser(t, e, "t1", "pw")
	if _, err := e.DatalogQuery(s, `emp(X, 'eng', S)`); !errors.Is(err, ErrAuth) {
		t.Fatalf("datalog over ungranted table err = %v, want ErrAuth", err)
	}
	mustExec(t, admin, `GRANT SELECT ON emp TO t1`)
	if _, err := e.DatalogQuery(s, `emp(X, 'eng', S)`); err != nil {
		t.Fatalf("datalog over granted table: %v", err)
	}
}

func TestMemBudgetAbortsBigStatements(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	// A tiny budget aborts a sorting scan; point lookups stay under it.
	s.SetMemBudget(128)
	if _, err := s.Query(`SELECT id, dept, salary FROM emp ORDER BY salary`); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("oversized sort err = %v, want ErrMemBudget", err)
	}
	if _, err := s.Query(`SELECT id FROM emp WHERE id = 3`); err != nil {
		t.Fatalf("point query under budget: %v", err)
	}
	// The budget binds every entry point, not just Query: the same
	// statements streamed (the path every ExecStream frame takes) and a
	// PRISMAlog query reading the same table abort too.
	for _, q := range []string{
		`SELECT id, dept, salary FROM emp ORDER BY salary`, // materializing root
		`SELECT id, dept, salary FROM emp`,                 // fragment-at-a-time pipeline
	} {
		cur, _, err := s.Stream(q)
		for err == nil {
			var batch *value.Relation
			if batch, err = cur.Next(); batch == nil {
				break
			}
		}
		if !errors.Is(err, ErrMemBudget) {
			t.Fatalf("streamed %q err = %v, want ErrMemBudget", q, err)
		}
	}
	if _, err := e.DatalogQuery(s, `emp(I, D, S)`); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("PRISMAlog scan err = %v, want ErrMemBudget", err)
	}
	// Raising the budget clears the constraint.
	s.SetMemBudget(1 << 20)
	if _, err := s.Query(`SELECT id, dept, salary FROM emp ORDER BY salary`); err != nil {
		t.Fatalf("sort under a sane budget: %v", err)
	}
	if cur, _, err := s.Stream(`SELECT id, dept, salary FROM emp`); err != nil {
		t.Fatal(err)
	} else if got := collect(t, cur); got.Len() != 60 {
		t.Fatalf("stream under a sane budget delivered %d rows", got.Len())
	}
}

// TestMemBudgetChargesDerivedRelations: what a PRISMAlog evaluation
// derives is gathered at the coordinator round after round, and the
// tenant's budget is charged for it like any statement's materialization:
// the 45 150 pairs reachable along a 300-edge chain (~2.5 MB) abort under a
// 64 KiB budget and come out whole under a sane one.
func TestMemBudgetChargesDerivedRelations(t *testing.T) {
	e := newEngine(t)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE edge (src INT, dst INT) FRAGMENT BY HASH(src) INTO 4 FRAGMENTS`)
	var tuples []value.Tuple
	for i := int64(0); i < 300; i++ {
		tuples = append(tuples, value.Ints(i, i+1))
	}
	if err := e.LoadTable("edge", tuples); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterRules("reach(X, Y) :- edge(X, Y).\nreach(X, Y) :- edge(X, Z), reach(Z, Y)."); err != nil {
		t.Fatal(err)
	}
	want, err := e.DatalogQuery(s, `reach(X, Y)`)
	if err != nil || want.Len() != 300*301/2 {
		t.Fatalf("reach without a budget = %d pairs, %v", want.Len(), err)
	}
	s.SetMemBudget(64 << 10)
	if _, err := e.DatalogQuery(s, `reach(X, Y)`); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("reach under 64 KiB err = %v, want ErrMemBudget", err)
	}
	s.SetMemBudget(64 << 20)
	if got, err := e.DatalogQuery(s, `reach(X, Y)`); err != nil || !got.SameBag(want) {
		t.Fatalf("reach under a sane budget = %d pairs, %v; want the unbudgeted %d", got.Len(), err, want.Len())
	}
}
