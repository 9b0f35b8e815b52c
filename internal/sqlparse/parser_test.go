package sqlparse

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/fragment"
	"repro/internal/value"
)

func parseOK(t *testing.T, src string) Stmt {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestCreateTable(t *testing.T) {
	st := parseOK(t, `CREATE TABLE emp (id INT, name VARCHAR, salary FLOAT, PRIMARY KEY (id))
		FRAGMENT BY HASH(id) INTO 8 FRAGMENTS;`)
	ct, ok := st.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if ct.Name != "emp" || len(ct.Cols) != 3 {
		t.Errorf("table = %q, cols = %v", ct.Name, ct.Cols)
	}
	if ct.Cols[0].Kind != value.KindInt || ct.Cols[1].Kind != value.KindString || ct.Cols[2].Kind != value.KindFloat {
		t.Errorf("column kinds = %v", ct.Cols)
	}
	if len(ct.PrimaryKey) != 1 || ct.PrimaryKey[0] != "id" {
		t.Errorf("primary key = %v", ct.PrimaryKey)
	}
	if ct.Frag == nil || ct.Frag.Strategy != fragment.Hash || ct.Frag.Column != "id" || ct.Frag.N != 8 {
		t.Errorf("frag = %+v", ct.Frag)
	}
}

func TestCreateTableRangeAndRoundRobin(t *testing.T) {
	st := parseOK(t, `CREATE TABLE log (ts INT, msg VARCHAR)
		FRAGMENT BY RANGE(ts) VALUES (100, 200) INTO 3 FRAGMENTS`)
	ct := st.(*CreateTable)
	if ct.Frag.Strategy != fragment.Range || len(ct.Frag.Bounds) != 2 || ct.Frag.Bounds[1].Int() != 200 {
		t.Errorf("range frag = %+v", ct.Frag)
	}
	st = parseOK(t, `CREATE TABLE tmp (x INT) FRAGMENT BY ROUND ROBIN INTO 4 FRAGMENTS`)
	ct = st.(*CreateTable)
	if ct.Frag.Strategy != fragment.RoundRobin || ct.Frag.N != 4 {
		t.Errorf("rr frag = %+v", ct.Frag)
	}
	// No fragment clause: nil.
	st = parseOK(t, `CREATE TABLE plain (x INT)`)
	if st.(*CreateTable).Frag != nil {
		t.Error("expected nil frag clause")
	}
}

func TestCreateTableErrors(t *testing.T) {
	bad := []string{
		`CREATE TABLE`,
		`CREATE TABLE t`,
		`CREATE TABLE t (x BLOB)`,
		`CREATE TABLE t (x INT) FRAGMENT BY HASH(x) INTO 0 FRAGMENTS`,
		`CREATE TABLE t (x INT) FRAGMENT BY RANGE(x) VALUES (1) INTO 5 FRAGMENTS`,
		`CREATE TABLE t (x INT) FRAGMENT BY MAGIC(x) INTO 2 FRAGMENTS`,
		`CREATE TABLE t (x INT) FRAGMENT BY ROUND ROBIN INTO two FRAGMENTS`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestDropTable(t *testing.T) {
	st := parseOK(t, `DROP TABLE emp`)
	if dt, ok := st.(*DropTable); !ok || dt.Name != "emp" {
		t.Errorf("got %#v", st)
	}
}

func TestInsert(t *testing.T) {
	st := parseOK(t, `INSERT INTO emp VALUES (1, 'ann', 100.5), (2, 'bob', -3)`)
	ins := st.(*Insert)
	if ins.Table != "emp" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Fatalf("insert = %+v", ins)
	}
	// Negative literal folded.
	c, ok := ins.Rows[1][2].(*expr.Const)
	if !ok || c.V.Int() != -3 {
		t.Errorf("negative literal = %v", ins.Rows[1][2])
	}
	// Explicit column list.
	st = parseOK(t, `INSERT INTO emp (id, name) VALUES (1, 'x')`)
	if cols := st.(*Insert).Cols; len(cols) != 2 || cols[1] != "name" {
		t.Errorf("cols = %v", cols)
	}
}

func TestSelectBasic(t *testing.T) {
	st := parseOK(t, `SELECT * FROM emp`)
	sel := st.(*Select)
	if !sel.Items[0].Star || len(sel.From) != 1 || sel.From[0].Table != "emp" {
		t.Errorf("select = %+v", sel)
	}
	if sel.Limit != -1 || sel.Distinct {
		t.Errorf("defaults wrong: %+v", sel)
	}
}

func TestSelectFull(t *testing.T) {
	st := parseOK(t, `SELECT DISTINCT dept, COUNT(*) AS n, AVG(salary) mean
		FROM emp e
		WHERE salary > 100 AND dept <> 'hr'
		GROUP BY dept
		HAVING n > 2
		ORDER BY dept DESC, n
		LIMIT 10`)
	sel := st.(*Select)
	if !sel.Distinct {
		t.Error("DISTINCT lost")
	}
	if len(sel.Items) != 3 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	if sel.Items[1].Agg == nil || sel.Items[1].Agg.Func != "COUNT" || !sel.Items[1].Agg.Star || sel.Items[1].As != "n" {
		t.Errorf("item 1 = %+v", sel.Items[1])
	}
	if sel.Items[2].Agg == nil || sel.Items[2].Agg.Func != "AVG" || sel.Items[2].As != "mean" {
		t.Errorf("item 2 = %+v", sel.Items[2])
	}
	if sel.From[0].Alias != "e" {
		t.Errorf("alias = %q", sel.From[0].Alias)
	}
	if sel.Where == nil || sel.Having == nil {
		t.Error("where/having lost")
	}
	if len(sel.GroupBy) != 1 || sel.GroupBy[0] != "dept" {
		t.Errorf("group by = %v", sel.GroupBy)
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order by = %+v", sel.OrderBy)
	}
	if sel.Limit != 10 {
		t.Errorf("limit = %d", sel.Limit)
	}
}

func TestSelectJoins(t *testing.T) {
	st := parseOK(t, `SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.name WHERE e.salary > 10`)
	sel := st.(*Select)
	if len(sel.Joins) != 1 || sel.Joins[0].Table != "dept" || sel.Joins[0].Alias != "d" {
		t.Fatalf("joins = %+v", sel.Joins)
	}
	if sel.Joins[0].On == nil {
		t.Error("join condition lost")
	}
	// Implicit join (comma list).
	st = parseOK(t, `SELECT * FROM a, b WHERE a.x = b.y`)
	sel = st.(*Select)
	if len(sel.From) != 2 {
		t.Errorf("from = %+v", sel.From)
	}
	// INNER JOIN keyword.
	st = parseOK(t, `SELECT * FROM a INNER JOIN b ON a.x = b.y`)
	if len(st.(*Select).Joins) != 1 {
		t.Error("INNER JOIN not parsed")
	}
}

func TestUpdateDelete(t *testing.T) {
	st := parseOK(t, `UPDATE emp SET salary = salary * 2, dept = 'eng' WHERE id = 5`)
	up := st.(*Update)
	if up.Table != "emp" || len(up.Set) != 2 || up.Set[0].Col != "salary" || up.Where == nil {
		t.Errorf("update = %+v", up)
	}
	st = parseOK(t, `DELETE FROM emp WHERE dept = 'hr'`)
	del := st.(*Delete)
	if del.Table != "emp" || del.Where == nil {
		t.Errorf("delete = %+v", del)
	}
	st = parseOK(t, `DELETE FROM emp`)
	if st.(*Delete).Where != nil {
		t.Error("unconditional delete should have nil where")
	}
}

func TestTransactionStatements(t *testing.T) {
	if _, ok := parseOK(t, "BEGIN").(*Begin); !ok {
		t.Error("BEGIN")
	}
	if _, ok := parseOK(t, "COMMIT").(*Commit); !ok {
		t.Error("COMMIT")
	}
	if _, ok := parseOK(t, "ROLLBACK").(*Rollback); !ok {
		t.Error("ROLLBACK")
	}
	if _, ok := parseOK(t, "ABORT;").(*Rollback); !ok {
		t.Error("ABORT")
	}
}

func TestExpressionParsing(t *testing.T) {
	// Render back via expr.String and check structure survived.
	cases := map[string]string{
		`SELECT a + b * c FROM t`:                        "(a + (b * c))",
		`SELECT (a + b) * c FROM t`:                      "((a + b) * c)",
		`SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3`: "(x = 1 OR (y = 2 AND z = 3))",
		`SELECT a FROM t WHERE NOT x = 1`:                "(NOT x = 1)",
		`SELECT a FROM t WHERE x IS NOT NULL`:            "(x IS NOT NULL)",
		`SELECT a FROM t WHERE name LIKE 'a%'`:           "(name LIKE 'a%')",
		`SELECT a FROM t WHERE name NOT LIKE 'a%'`:       "(name NOT LIKE 'a%')",
		`SELECT a FROM t WHERE id IN (1, 2, 3)`:          "(id IN (1, 2, 3))",
		`SELECT a FROM t WHERE id NOT IN (1)`:            "(id NOT IN (1))",
		`SELECT a FROM t WHERE x % 2 = 0`:                "(x % 2) = 0",
		`SELECT a FROM t WHERE -x < 5`:                   "(-x) < 5",
		`SELECT a FROM t WHERE abs(x - 5) > 2`:           "ABS((x - 5)) > 2",
		`SELECT a FROM t WHERE t.x >= 1.5`:               "t.x >= 1.5",
	}
	for src, want := range cases {
		st := parseOK(t, src)
		sel := st.(*Select)
		var e expr.Expr
		if sel.Where != nil {
			e = sel.Where
		} else {
			e = sel.Items[0].Expr
		}
		if got := e.String(); got != want {
			t.Errorf("%q parsed to %q, want %q", src, got, want)
		}
	}
}

func TestLexerFeatures(t *testing.T) {
	// String escapes, comments, != alias.
	st := parseOK(t, `SELECT a FROM t -- a comment
		WHERE name = 'o''brien' AND x != 2`)
	sel := st.(*Select)
	s := sel.Where.String()
	if !strings.Contains(s, "o'brien") || !strings.Contains(s, "<>") {
		t.Errorf("where = %q", s)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT * FROM`,
		`SELECT * FROM t WHERE`,
		`SELECT * FROM t LIMIT x`,
		`SELECT * FROM t GROUP`,
		`INSERT INTO t`,
		`INSERT INTO t VALUES`,
		`INSERT INTO t VALUES (1`,
		`UPDATE t`,
		`UPDATE t SET`,
		`DELETE t`,
		`SELECT * FROM t;;EXTRA`,
		`SELECT * FROM t WHERE x LIKE 5`,
		`SELECT * FROM t WHERE x NOT 5`,
		`SELECT 'unterminated FROM t`,
		`SELECT 1x FROM t`,
		`SELECT * FROM t WHERE x @ 1`,
		`SELECT * FROM t JOIN u`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	st := parseOK(t, `select id from emp where id > 1 order by id desc limit 5`)
	sel := st.(*Select)
	if sel.Limit != 5 || !sel.OrderBy[0].Desc {
		t.Errorf("lower-case parse = %+v", sel)
	}
}

func TestAdminStatements(t *testing.T) {
	for _, c := range []struct {
		src  string
		want Stmt
	}{
		{`SET STATEMENT_TIMEOUT = 250`, &SetTimeout{Timeout: 250 * time.Millisecond}},
		{`set statement_timeout=0;`, &SetTimeout{}},
		{`PROMOTE`, &Promote{}},
		{`CREATE USER alice PASSWORD 'pw'`, &CreateUser{Name: "alice", Password: "pw"}},
		{`CREATE USER o PASSWORD 'it''s' -- escaped quote`, &CreateUser{Name: "o", Password: "it's"}},
		{`create user Bob password 'x' ADMIN mem_budget 1048576 PRIORITY Batch MAX_CONCURRENT 3`,
			&CreateUser{Name: "Bob", Password: "x", Opts: catalog.UserOpts{
				Priority: "batch", MaxConcurrent: 3, MemBudget: 1 << 20, Admin: true}}},
		{`DROP USER alice;`, &DropUser{Name: "alice"}},
		{`GRANT SELECT, INSERT ON emp TO alice`,
			&Grant{Priv: catalog.PrivSelect | catalog.PrivInsert, Table: "emp", User: "alice"}},
		{`GRANT ALL ON emp TO alice`, &Grant{Priv: catalog.PrivAll, Table: "emp", User: "alice"}},
		{`revoke update,delete on emp from alice`,
			&Grant{Revoke: true, Priv: catalog.PrivUpdate | catalog.PrivDelete, Table: "emp", User: "alice"}},
		{`SHOW ADMISSION`, &Show{What: "ADMISSION"}},
		{`show users -- note`, &Show{What: "USERS"}},
	} {
		if got := parseOK(t, c.src); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Parse(%q) = %#v, want %#v", c.src, got, c.want)
		}
	}
	for _, src := range []string{
		`SET STATEMENT_TIMEOUT = 99999999999999999999`, // overflows int64
		`SET STATEMENT_TIMEOUT = 9223372036855`,        // overflows time.Duration
		`SET STATEMENT_TIMEOUT = -1`,
		`SET STATEMENT_TIMEOUT = ?`,
		`SET SEARCH_PATH = 1`,
		`PROMOTE NOW`,
		`CREATE USER u`,
		`CREATE USER u PASSWORD pw`,
		`CREATE USER u PASSWORD 'pw' MAX_CONCURRENT 99999999999999999999`,
		`CREATE USER u PASSWORD 'pw' SUPERUSER`,
		`DROP USER`,
		`GRANT FLY ON t TO u`,
		`GRANT ON t TO u`,
		`GRANT SELECT ON t FROM u`,
		`REVOKE SELECT ON t TO u`,
		`GRANT SELECT, ON t TO u`,
		`SHOW TABLES`,
		`SHOW`,
	} {
		if st, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) = %#v, want an error", src, st)
		}
	}
}
