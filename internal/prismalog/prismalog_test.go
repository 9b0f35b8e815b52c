package prismalog_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/prismalog"
	"repro/internal/value"
)

const familyProgram = `
% the classic family database
parent(ann, bob).
parent(ann, carol).
parent(bob, dave).
parent(carol, eve).
parent(dave, fred).

ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`

// newEngine builds an engine and runs the SQL statements that set up its
// base tables.
func newEngine(t testing.TB, setup ...string) *core.Engine {
	t.Helper()
	e, err := core.New(core.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	s := e.NewSession()
	defer s.Close()
	for _, sql := range setup {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return e
}

// evalOn runs prog's rules on e's executor and returns every derived
// relation, keyed "pred/arity".
func evalOn(e *core.Engine, prog *prismalog.Program) (map[string]*value.Relation, prismalog.Stats, error) {
	s := e.NewSession()
	defer s.Close()
	var out map[string]*value.Relation
	var stats prismalog.Stats
	err := e.EvalDatalog(s, func(x prismalog.Executor) (err error) {
		out, stats, err = prismalog.Eval(prog, x)
		return err
	})
	return out, stats, err
}

// queryOn answers q over prog's rules on e's executor.
func queryOn(e *core.Engine, prog *prismalog.Program, q *prismalog.Query) (*value.Relation, error) {
	s := e.NewSession()
	defer s.Close()
	var rel *value.Relation
	err := e.EvalDatalog(s, func(x prismalog.Executor) (err error) {
		rel, _, err = prismalog.EvalQuery(prog, q, x)
		return err
	})
	return rel, err
}

func mustParse(t testing.TB, src string) *prismalog.Program {
	t.Helper()
	prog, err := prismalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func mustEval(t testing.TB, e *core.Engine, src string) map[string]*value.Relation {
	t.Helper()
	out, _, err := evalOn(e, mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustQuery(t testing.TB, e *core.Engine, src, query string) *value.Relation {
	t.Helper()
	q, err := prismalog.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := queryOn(e, mustParse(t, src), q)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestParseProgram(t *testing.T) {
	prog, err := prismalog.Parse(familyProgram)
	if err != nil {
		t.Fatal(err)
	}
	facts := 0
	rules := 0
	for _, r := range prog.Rules {
		if r.IsFact() {
			facts++
		} else {
			rules++
		}
	}
	if facts != 5 || rules != 2 {
		t.Errorf("facts=%d rules=%d", facts, rules)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`parent(ann bob).`,     // missing comma
		`parent(ann, bob)`,     // missing period
		`ancestor(X, Y) :- .`,  // empty body
		`p(X).`,                // variable in fact
		`q(X) :- r(Y).`,        // unsafe head var
		`q(X) :- p(X), Y > 3.`, // unsafe comparison var
		`?- `,                  // empty query
		`p('unterminated).`,    // bad string
		`p(&).`,                // bad char
		`p(x) :- q(x), > 3.`,   // comparison missing lhs
		`p(_) :- q(X).`,        // an anonymous head variable is unbound
		`p(1) :- 1 < 2.`,       // no body atom
	}
	for _, src := range bad {
		if _, err := prismalog.Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	prog, err := prismalog.Parse(`ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y), X <> Y, parent(_, _).`)
	if err != nil {
		t.Fatal(err)
	}
	s := prog.Rules[0].String()
	for _, frag := range []string{"ancestor(X, Y)", ":-", "parent(X, Z)", "X <> Y", "parent(_, _)"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestAncestorFixpoint(t *testing.T) {
	anc := mustEval(t, newEngine(t), familyProgram)["ancestor/2"]
	if anc == nil {
		t.Fatal("no ancestor relation")
	}
	// parent pairs (5) + grandparents (ann-dave, ann-eve, bob-fred) +
	// great-grandparents (ann-fred) = 9.
	if anc.Len() != 9 {
		t.Errorf("ancestor = %d pairs, want 9", anc.Len())
	}
	if !containsPair(anc, "ann", "fred") {
		t.Errorf("(ann, fred) missing")
	}
}

// TestSemiNaiveDoesLessWork: the executor's rounds join only the last
// round's delta, so they derive fewer candidate tuples than naive
// re-evaluation (the reference evaluator's naive mode) does.
func TestSemiNaiveDoesLessWork(t *testing.T) {
	src := "tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
	edges := value.NewRelation(value.MustSchema("src", "INT", "dst", "INT"))
	for i := int64(0); i < 30; i++ {
		edges.Append(value.Ints(i, i+1))
	}
	e := newEngine(t, `CREATE TABLE edge (src INT, dst INT) FRAGMENT BY HASH(src) INTO 3 FRAGMENTS`)
	if err := e.LoadTable("edge", edges.Tuples); err != nil {
		t.Fatal(err)
	}
	prog := mustParse(t, src)
	_, naiveStats, err := prismalog.RefEval(prog, prismalog.MapEDB{"edge": edges}, prismalog.RefOptions{SemiNaive: false})
	if err != nil {
		t.Fatal(err)
	}
	out, semiStats, err := evalOn(e, prog)
	if err != nil {
		t.Fatal(err)
	}
	if out["tc/2"].Len() != 30*31/2 {
		t.Errorf("tc = %d pairs, want %d", out["tc/2"].Len(), 30*31/2)
	}
	if semiStats.TuplesDerived >= naiveStats.TuplesDerived {
		t.Errorf("semi-naive derived %d tuples, naive %d; expected strictly less",
			semiStats.TuplesDerived, naiveStats.TuplesDerived)
	}
}

func TestEDBIntegration(t *testing.T) {
	// anc over a base table instead of program facts.
	e := newEngine(t,
		`CREATE TABLE par (p VARCHAR, c VARCHAR) FRAGMENT BY HASH(p) INTO 2 FRAGMENTS`,
		`INSERT INTO par VALUES ('a', 'b'), ('b', 'c')`)
	out := mustEval(t, e, `anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).`)
	if out["anc/2"].Len() != 3 {
		t.Errorf("anc = %v", out["anc/2"].Tuples)
	}
	// Unknown predicate errors.
	if _, _, err := evalOn(e, mustParse(t, `q(X) :- nosuch(X).`)); err == nil {
		t.Error("unknown EDB predicate should error")
	}
	// Arity mismatch errors.
	if _, _, err := evalOn(e, mustParse(t, `q(X) :- par(X).`)); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestQueryEvaluation(t *testing.T) {
	e := newEngine(t)
	// ann's descendants: bob, carol, dave, eve, fred.
	out := mustQuery(t, e, familyProgram, `ancestor(ann, X)`)
	if out.Len() != 5 {
		t.Errorf("descendants of ann = %v", out.Tuples)
	}
	if out.Schema.Column(0).Name != "X" {
		t.Errorf("answer schema = %v", out.Schema)
	}
	// Ground query: true → one empty tuple.
	if out := mustQuery(t, e, familyProgram, `?- ancestor(ann, fred).`); out.Len() != 1 {
		t.Errorf("ground query answers = %d, want 1", out.Len())
	}
	// False ground query: empty.
	if out := mustQuery(t, e, familyProgram, `ancestor(fred, ann)`); out.Len() != 0 {
		t.Errorf("false query answers = %v", out.Tuples)
	}
}

func TestComparisonLiterals(t *testing.T) {
	out := mustEval(t, newEngine(t), `
		num(1). num(2). num(3). num(4).
		big(X) :- num(X), X > 2.
		pairs(X, Y) :- num(X), num(Y), X < Y.
	`)
	if out["big/1"].Len() != 2 {
		t.Errorf("big = %v", out["big/1"].Tuples)
	}
	if out["pairs/2"].Len() != 6 {
		t.Errorf("pairs = %v", out["pairs/2"].Tuples)
	}
}

func TestRepeatedVariables(t *testing.T) {
	out := mustEval(t, newEngine(t), `
		e(1, 1). e(1, 2). e(2, 2).
		loop(X) :- e(X, X).
	`)
	if out["loop/1"].Len() != 2 {
		t.Errorf("loop = %v", out["loop/1"].Tuples)
	}
}

func TestNonLinearRecursion(t *testing.T) {
	// Same-generation: a classically non-linear recursive program.
	sg := mustEval(t, newEngine(t), `
		parent(a, b). parent(a, c). parent(b, d). parent(c, e).
		sg(X, X) :- parent(X, Y).
		sg(X, Y) :- parent(XP, X), sg(XP, YP), parent(YP, Y).
	`)["sg/2"]
	// (b,c) are same generation (both children of a); (d,e) too.
	if !containsPair(sg, "b", "c") {
		t.Errorf("(b,c) missing from %v", sg.Tuples)
	}
	if !containsPair(sg, "d", "e") {
		t.Errorf("(d,e) missing from %v", sg.Tuples)
	}
}

func containsPair(r *value.Relation, a, b string) bool {
	for _, t := range r.Tuples {
		if t[0].Str() == a && t[1].Str() == b {
			return true
		}
	}
	return false
}

func TestMutualRecursion(t *testing.T) {
	out := mustEval(t, newEngine(t), `
		e(0, 1). e(1, 2). e(2, 3). e(3, 4).
		even(0).
		even(Y) :- odd(X), e(X, Y).
		odd(Y) :- even(X), e(X, Y).
	`)
	if out["even/1"].Len() != 3 { // 0, 2, 4
		t.Errorf("even = %v", out["even/1"].Tuples)
	}
	if out["odd/1"].Len() != 2 { // 1, 3
		t.Errorf("odd = %v", out["odd/1"].Tuples)
	}
}

// TestNaiveAndSemiNaiveAgree: the reference evaluator's two modes and the
// executor derive the same relations.
func TestNaiveAndSemiNaiveAgree(t *testing.T) {
	programs := []string{
		familyProgram,
		`e(1,2). e(2,3). e(3,1). tc(X,Y) :- e(X,Y). tc(X,Y) :- tc(X,Z), tc(Z,Y).`,
		`p(1). p(2). q(X,Y) :- p(X), p(Y).`,
	}
	e := newEngine(t)
	for _, src := range programs {
		prog := mustParse(t, src)
		a, _, err := prismalog.RefEval(prog, prismalog.MapEDB{}, prismalog.RefOptions{SemiNaive: false})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := prismalog.RefEval(prog, prismalog.MapEDB{}, prismalog.RefOptions{SemiNaive: true})
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := evalOn(e, prog)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("different predicate sets: %d, %d and %d", len(a), len(b), len(c))
		}
		for k, ra := range a {
			if rb := b[k]; rb == nil || !ra.SameSet(rb) {
				t.Errorf("program %q: %s differs between naive and semi-naive", src, k)
			}
			if rc := c[k]; rc == nil || !ra.SameSet(rc) {
				t.Errorf("program %q: %s differs between the reference and the executor", src, k)
			}
		}
	}
}

func TestQueryWithComparison(t *testing.T) {
	out := mustQuery(t, newEngine(t), familyProgram, `ancestor(X, Y), X <> ann`)
	for _, tp := range out.Tuples {
		if tp[0].Str() == "ann" {
			t.Errorf("comparison filter failed: %v", tp)
		}
	}
	if out.Len() != 4 { // bob-dave, bob-fred, carol-eve, dave-fred
		t.Errorf("filtered ancestors = %v", out.Tuples)
	}
}

func TestNumericAndQuotedConstants(t *testing.T) {
	out := mustEval(t, newEngine(t), `
		m(1, 2.5, 'hello world').
		pick(X, Y, Z) :- m(X, Y, Z).
	`)
	row := out["pick/3"].Tuples[0]
	if row[0].Int() != 1 || row[1].Float() != 2.5 || row[2].Str() != "hello world" {
		t.Errorf("row = %v", row)
	}
}

func TestTermAndQueryString(t *testing.T) {
	q, err := prismalog.ParseQuery(`ancestor(ann, X), X <> bob`)
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	if !strings.Contains(s, "?-") || !strings.Contains(s, "ancestor('ann', X)") {
		t.Errorf("query string = %q", s)
	}
	if got := q.Vars(); len(got) != 1 || got[0] != "X" {
		t.Errorf("query vars = %v", got)
	}
}
