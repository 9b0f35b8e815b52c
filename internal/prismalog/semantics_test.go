package prismalog_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/prismalog"
	"repro/internal/value"
)

// TestAnonymousVariables: each `_` is a variable of its own and never an
// answer column.
func TestAnonymousVariables(t *testing.T) {
	e := newEngine(t,
		`CREATE TABLE q (a INT, b INT) FRAGMENT BY HASH(a) INTO 2 FRAGMENTS`,
		`CREATE TABLE r (a INT, b INT)`,
		`INSERT INTO q VALUES (1, 10), (3, 4)`,
		`INSERT INTO r VALUES (20, 2)`)
	p := mustEval(t, e, `p(X, Y) :- q(X, _), r(_, Y).`)["p/2"]
	want := value.NewRelation(p.Schema)
	want.Append(value.Ints(1, 2), value.Ints(3, 2))
	if !p.SameSet(want) {
		t.Errorf("p(X, Y) :- q(X, _), r(_, Y). = %v, want %v", p.Tuples, want.Tuples)
	}
	// No answer variable: one empty row, for q is not empty.
	if got := mustQuery(t, e, ``, `?- q(_, _).`); got.Schema.Len() != 0 || got.Len() != 1 {
		t.Errorf("?- q(_, _). = %d columns, %d rows; want 0 columns, 1 row", got.Schema.Len(), got.Len())
	}
	got := mustQuery(t, e, ``, `?- q(X, _).`)
	if got.Schema.Len() != 1 || got.Schema.Column(0).Name != "X" || got.Len() != 2 {
		t.Errorf("?- q(X, _). = %v %v, want column X over 2 rows", got.Schema, got.Tuples)
	}
}

// TestAnswerKinds: an answer column has the kind of the column it is read
// from, not VARCHAR.
func TestAnswerKinds(t *testing.T) {
	e := newEngine(t,
		`CREATE TABLE edge (src INT, dst INT) FRAGMENT BY HASH(src) INTO 2 FRAGMENTS`,
		`INSERT INTO edge VALUES (0, 1), (1, 2)`)
	if err := e.RegisterRules("reach(X, Y) :- edge(X, Y).\nreach(X, Y) :- edge(X, Z), reach(Z, Y)."); err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	defer s.Close()
	rel, err := e.DatalogQuery(s, `reach(0, X)`)
	if err != nil {
		t.Fatal(err)
	}
	if k := rel.Schema.Column(0).Kind; k != value.KindInt || rel.Len() != 2 {
		t.Errorf("reach(0, X) = %v of %s, want 2 rows of %s", rel.Tuples, k, value.KindInt)
	}
}

// TestNullNeverJoins: as in SQL, a NULL matches nothing — not a shared
// variable, not a repeated one — and the reference evaluator agrees.
func TestNullNeverJoins(t *testing.T) {
	e := newEngine(t,
		`CREATE TABLE q (a INT, b INT) FRAGMENT BY HASH(a) INTO 2 FRAGMENTS`,
		`CREATE TABLE r (a INT, b INT)`,
		`INSERT INTO q VALUES (1, NULL), (NULL, NULL), (2, 3)`,
		`INSERT INTO r VALUES (NULL, 5), (3, 6)`)
	src := `
		j(X, Y) :- q(X, Z), r(Z, Y).
		same(X) :- q(X, X).
		copy(X, Y) :- q(X, Y).
	`
	out := mustEval(t, e, src)
	want := map[string][]value.Tuple{
		"j/2":    {value.Ints(2, 6)},
		"same/1": nil,
		"copy/2": {{value.NewInt(1), value.Null}, {value.Null, value.Null}, value.Ints(2, 3)},
	}
	ref, _, err := prismalog.RefEval(mustParse(t, src), prismalog.MapEDB{"q": scanAll(t, e, "q"), "r": scanAll(t, e, "r")}, prismalog.RefOptions{SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	for k, tuples := range want {
		w := value.NewRelation(out[k].Schema)
		w.Append(tuples...)
		if !out[k].SameSet(w) {
			t.Errorf("%s = %v, want %v", k, out[k].Tuples, tuples)
		}
		if !ref[k].SameSet(w) {
			t.Errorf("reference %s = %v, want %v", k, ref[k].Tuples, tuples)
		}
	}
}

// scanAll reads a base table whole, for the reference evaluator.
func scanAll(t testing.TB, e *core.Engine, table string) *value.Relation {
	t.Helper()
	s := e.NewSession()
	defer s.Close()
	rel, err := s.Query("SELECT * FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestIncomparableComparisonFails: a comparison of incomparable kinds —
// a comparison literal, or a constant argument, which is an equality —
// fails the evaluation, as it fails a SQL WHERE.
func TestIncomparableComparisonFails(t *testing.T) {
	e := newEngine(t,
		`CREATE TABLE q (a INT, b VARCHAR)`,
		`INSERT INTO q VALUES (1, 'x')`)
	s := e.NewSession()
	defer s.Close()
	for _, c := range []struct{ sql, query string }{
		{`SELECT * FROM q WHERE a < b`, `?- q(X, Y), X < Y.`},
		{`SELECT * FROM q WHERE b = 5`, `?- q(X, 5).`},
		{`SELECT * FROM q WHERE a = 'x'`, `?- q(X, _), X = x.`},
	} {
		if _, err := s.Query(c.sql); err == nil {
			t.Fatalf("%s: no error", c.sql)
		}
		q, err := prismalog.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := queryOn(e, &prismalog.Program{}, q); err == nil || !strings.Contains(err.Error(), "cannot compare") {
			t.Errorf("%s: err = %v, want a comparison error like the SQL WHERE's", c.query, err)
		}
	}
	// Comparable kinds compare as in SQL: INT with FLOAT numerically.
	if got := mustQuery(t, e, ``, `?- q(X, _), X = 1.0.`); got.Len() != 1 {
		t.Errorf("X = 1.0 over INT 1: %v", got.Tuples)
	}
}

// TestTwoKindColumnFails: a derived column given two kinds — by facts or
// by the columns its rules read — is an error, not a relation of mixed
// kinds.
func TestTwoKindColumnFails(t *testing.T) {
	e := newEngine(t, `CREATE TABLE q (a INT, b VARCHAR)`, `INSERT INTO q VALUES (1, 'x')`)
	for _, src := range []string{
		`p(1). p('a').`,
		`p(X) :- q(X, _). p(Y) :- q(_, Y).`,
		`p(X) :- q(X, _). p('a').`,
	} {
		if _, _, err := evalOn(e, mustParse(t, src)); err == nil || !strings.Contains(err.Error(), "derived as both") {
			t.Errorf("%s: err = %v, want a two-kind error", src, err)
		}
	}
}

// TestDerivedShadowsBaseTable: a derived predicate named like a base table
// of the same arity is the derived one; the table is not read, and so
// needs no grant.
func TestDerivedShadowsBaseTable(t *testing.T) {
	e := newEngine(t,
		`CREATE TABLE edge (src INT, dst INT)`,
		`CREATE TABLE other (a INT, b INT)`,
		`INSERT INTO edge VALUES (1, 2)`,
		`INSERT INTO other VALUES (7, 8)`,
		`CREATE USER t1 PASSWORD 'pw'`,
		`GRANT SELECT ON other TO t1`)
	u, err := e.Catalog().Authenticate("t1", "pw")
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	defer s.Close()
	s.SetUser(u)
	answers, err := e.DatalogProgram(s, `edge(X, Y) :- other(X, Y). ?- edge(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if got := answers[0]; got.Len() != 1 || got.Tuples[0][0].Int() != 7 {
		t.Errorf("shadowing edge = %v, want the derived (7, 8)", got.Tuples)
	}
	// Another arity is another predicate: the table, which t1 may not read.
	if _, err := e.DatalogProgram(s, `edge(X) :- other(X, _). ?- edge(X, Y).`); err == nil {
		t.Error("edge/2 beside a derived edge/1 read the table without a grant")
	}
}

// TestPredicateTextNamesColumns: the executor caches a scan's compiled
// filter, and shares scans, by the predicate's text, so two predicates on
// different columns must not read alike — whatever variables they hold.
func TestPredicateTextNamesColumns(t *testing.T) {
	e := newEngine(t,
		`CREATE TABLE b1 (a INT, b INT) FRAGMENT BY HASH(a) INTO 2 FRAGMENTS`,
		`CREATE TABLE t3 (a INT, b INT, c INT)`,
		`INSERT INTO b1 VALUES (1, 5), (5, 1)`,
		`INSERT INTO t3 VALUES (1, 2, 1), (2, 1, 1)`)
	// One engine, so the second query meets the first one's filter cache.
	for _, query := range []string{`?- b1(X, _), X < 3.`, `?- b1(_, X), X < 3.`} {
		if got := mustQuery(t, e, ``, query); got.Len() != 1 || got.Tuples[0][0].Int() != 1 {
			t.Errorf("%s = %v, want X = 1", query, got.Tuples)
		}
	}
	// Both atoms pin their third column, to the first and to the second.
	got := mustQuery(t, e, ``, `?- t3(X, Y, X), t3(Y, X, X).`)
	want := value.NewRelation(got.Schema)
	want.Append(value.Ints(1, 2))
	if !got.SameSet(want) {
		t.Errorf("t3(X, Y, X), t3(Y, X, X) = %v, want %v", got.Tuples, want.Tuples)
	}
}

// TestNullOnlyColumn: a derived column that has held only NULLs has no
// kind yet; it compares, joins and projects as NULL does, matching nothing.
func TestNullOnlyColumn(t *testing.T) {
	e := newEngine(t,
		`CREATE TABLE q (a INT, b INT) FRAGMENT BY HASH(b) INTO 2 FRAGMENTS`,
		`INSERT INTO q VALUES (NULL, 1)`)
	src := `
		p(X) :- q(X, _).
		lt(X) :- p(X), X < 3.
		j(X) :- p(X), q(X, _).
		both(X, Y) :- p(X), q(_, Y).
	`
	out := mustEval(t, e, src)
	ref, _, err := prismalog.RefEval(mustParse(t, src), prismalog.MapEDB{"q": scanAll(t, e, "q")}, prismalog.RefOptions{SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	for k, n := range map[string]int{"p/1": 1, "lt/1": 0, "j/1": 0, "both/2": 1} {
		if out[k].Len() != n || !out[k].SameSet(ref[k]) {
			t.Errorf("%s = %v, want %d rows as the reference's %v", k, out[k].Tuples, n, ref[k].Tuples)
		}
	}
}
