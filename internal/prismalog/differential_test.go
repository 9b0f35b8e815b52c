package prismalog_test

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/prismalog"
	"repro/internal/value"
)

// The differential: seeded random programs over small INT tables, each
// answered by the executor-backed evaluator and by the reference evaluator
// (reference_test.go). The programs recurse, recurse mutually, pin
// constants, repeat variables, use `_` and comparisons, read NULLs, empty
// tables, and bodies whose atoms share no variable; a derived predicate may
// shadow a base table.

var (
	baseTables = []struct {
		name, ddl string
		arity     int
	}{
		{"b1", `CREATE TABLE b1 (a INT, b INT) FRAGMENT BY HASH(a) INTO %d FRAGMENTS`, 2},
		{"b2", `CREATE TABLE b2 (a INT, b INT) FRAGMENT BY HASH(b) INTO %d FRAGMENTS`, 2},
		{"b3", `CREATE TABLE b3 (a INT) FRAGMENT BY HASH(a) INTO %d FRAGMENTS`, 1},
		{"b4", `CREATE TABLE b4 (a INT, b INT, c INT) FRAGMENT BY HASH(c) INTO %d FRAGMENTS`, 3},
	}
	derivedPreds = []struct {
		name  string
		arity int
	}{{"p", 2}, {"q", 1}, {"r", 2}, {"b3", 1}} // b3/1 shadows the table
	varPool = []string{"X", "Y", "Z", "W"}
	cmpOps  = []string{"=", "<>", "<", "<=", ">", ">="}
)

// gen draws one program's tables and text.
type gen struct {
	rng   *rand.Rand
	rows  map[string][]value.Tuple
	frags map[string]int
	heads []int // indexes into derivedPreds with at least one rule or fact
}

func (g *gen) cell() value.Value {
	if g.rng.Intn(8) == 0 {
		return value.Null
	}
	return value.NewInt(int64(g.rng.Intn(5)))
}

func (g *gen) row(arity int) value.Tuple {
	t := make(value.Tuple, arity)
	for i := range t {
		t[i] = g.cell()
	}
	return t
}

func (g *gen) tables() {
	g.rows, g.frags = map[string][]value.Tuple{}, map[string]int{}
	for _, b := range baseTables {
		g.frags[b.name] = 1 + g.rng.Intn(3)
		n := g.rng.Intn(8) // 0: an empty relation
		for i := 0; i < n; i++ {
			g.rows[b.name] = append(g.rows[b.name], g.row(b.arity))
		}
	}
}

// atom writes a body atom over a base table or a derived predicate that
// has rules, its arguments variables, constants or `_`.
func (g *gen) atom(vars map[string]bool) string {
	name, arity := "", 0
	if g.rng.Intn(5) < 2 {
		d := derivedPreds[g.heads[g.rng.Intn(len(g.heads))]]
		name, arity = d.name, d.arity
	} else {
		b := baseTables[g.rng.Intn(len(baseTables))]
		name, arity = b.name, b.arity
	}
	args := make([]string, arity)
	for i := range args {
		switch k := g.rng.Intn(10); {
		case k < 6:
			v := varPool[g.rng.Intn(len(varPool))]
			vars[v] = true
			args[i] = v
		case k < 8:
			args[i] = fmt.Sprint(g.rng.Intn(5))
		default:
			args[i] = "_"
		}
	}
	return fmt.Sprintf("%s(%s)", name, strings.Join(args, ", "))
}

// body writes 1–3 atoms and maybe a comparison over their variables.
func (g *gen) body() (string, []string) {
	vars := map[string]bool{}
	var lits []string
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		lits = append(lits, g.atom(vars))
	}
	var bound []string
	for _, v := range varPool {
		if vars[v] {
			bound = append(bound, v)
		}
	}
	if len(bound) > 0 && g.rng.Intn(3) == 0 {
		r := fmt.Sprint(g.rng.Intn(5))
		if g.rng.Intn(2) == 0 {
			r = bound[g.rng.Intn(len(bound))]
		}
		lits = append(lits, fmt.Sprintf("%s %s %s", bound[g.rng.Intn(len(bound))], cmpOps[g.rng.Intn(len(cmpOps))], r))
	}
	return strings.Join(lits, ", "), bound
}

func (g *gen) program() string {
	g.heads = nil
	for i := range derivedPreds {
		if i < 3 && g.rng.Intn(4) > 0 || i == 3 && g.rng.Intn(6) == 0 {
			g.heads = append(g.heads, i)
		}
	}
	if len(g.heads) == 0 {
		g.heads = []int{0}
	}
	var src strings.Builder
	for _, h := range g.heads {
		d := derivedPreds[h]
		if g.rng.Intn(3) == 0 { // a fact
			args := make([]string, d.arity)
			for i := range args {
				args[i] = fmt.Sprint(g.rng.Intn(5))
			}
			fmt.Fprintf(&src, "%s(%s).\n", d.name, strings.Join(args, ", "))
		}
		for n := 1 + g.rng.Intn(2); n > 0; n-- {
			body, bound := g.body()
			args := make([]string, d.arity)
			for i := range args {
				if len(bound) > 0 && g.rng.Intn(5) > 0 {
					args[i] = bound[g.rng.Intn(len(bound))]
				} else {
					args[i] = fmt.Sprint(g.rng.Intn(5))
				}
			}
			fmt.Fprintf(&src, "%s(%s) :- %s.\n", d.name, strings.Join(args, ", "), body)
		}
	}
	for _, h := range g.heads {
		d := derivedPreds[h]
		fmt.Fprintf(&src, "?- %s(%s).\n", d.name, strings.Join(varPool[:d.arity], ", "))
	}
	body, _ := g.body()
	fmt.Fprintf(&src, "?- %s.\n", body)
	return src.String()
}

// reads lists the base tables prog's rule bodies and queries read.
func reads(prog *prismalog.Program) map[string]bool {
	derived := map[string]bool{}
	for _, r := range prog.Rules {
		derived[fmt.Sprintf("%s/%d", r.Head.Pred, len(r.Head.Args))] = true
	}
	out := map[string]bool{}
	lits := func(body []prismalog.Literal) {
		for _, l := range body {
			if l.Atom != nil && !derived[fmt.Sprintf("%s/%d", l.Atom.Pred, len(l.Atom.Args))] {
				out[l.Atom.Pred] = true
			}
		}
	}
	for _, r := range prog.Rules {
		lits(r.Body)
	}
	for _, q := range prog.Queries {
		lits(q.Body)
	}
	return out
}

// features names what the differential requires its corpus to reach, and
// lists those prog reaches over g's tables.
var features = []string{"recursion", "mutual recursion", "constant", "repeated variable", "_", "comparison", "NULL", "empty relation", "disconnected body"}

func (g *gen) features(prog *prismalog.Program) []string {
	var out []string
	has := func(f string, ok bool) {
		if ok && !slices.Contains(out, f) {
			out = append(out, f)
		}
	}
	bases := reads(prog)
	for table := range bases {
		has("empty relation", len(g.rows[table]) == 0)
		for _, r := range g.rows[table] {
			has("NULL", slices.ContainsFunc(r, value.Value.IsNull))
		}
	}
	calls := map[string]map[string]bool{} // head -> the derived predicates its bodies read
	for _, r := range prog.Rules {
		if calls[r.Head.Pred] == nil {
			calls[r.Head.Pred] = map[string]bool{}
		}
		var atoms [][]string
		for _, l := range r.Body {
			has("comparison", l.Cmp != nil)
			if l.Atom == nil {
				continue
			}
			if !bases[l.Atom.Pred] {
				calls[r.Head.Pred][l.Atom.Pred] = true
			}
			var vars []string
			for _, a := range l.Atom.Args {
				has("constant", !a.IsVar)
				has("_", a.String() == "_")
				has("repeated variable", a.IsVar && a.String() != "_" && slices.Contains(vars, a.Var))
				if a.IsVar {
					vars = append(vars, a.Var)
				}
			}
			atoms = append(atoms, vars)
		}
		// Disconnected: some atom shares no variable with the others.
		for i, vars := range atoms {
			alone := len(atoms) > 1
			for j, other := range atoms {
				if i != j && slices.ContainsFunc(vars, func(v string) bool { return slices.Contains(other, v) }) {
					alone = false
				}
			}
			has("disconnected body", alone)
		}
	}
	for head, reads := range calls {
		has("recursion", reads[head])
		for other := range reads {
			has("mutual recursion", other != head && calls[other][head])
		}
	}
	return out
}

// fixedPrograms open the corpus with shapes a random draw rarely makes
// whole: two derived atoms of one body growing in the same rounds (every
// round must read each of them through its delta in turn), same-generation
// and a non-linear closure over the tables.
var fixedPrograms = []string{`
	a(1). b(1). s(1, 2). s(2, 3). s(3, 4).
	a(Y) :- a(X), s(X, Y).
	b(Y) :- b(X), s(X, Y).
	p(X, Y) :- a(X), b(Y).
	?- p(X, Y).
`, `
	sg(X, X) :- b1(X, _).
	sg(X, Y) :- b1(X, XP), sg(XP, YP), b1(Y, YP).
	?- sg(X, Y).
`, `
	tc(X, Y) :- b2(X, Y).
	tc(X, Y) :- tc(X, Z), tc(Z, Y), X <> Y.
	?- tc(X, Y).
	?- tc(X, X).
`}

func TestExecutorMatchesReference(t *testing.T) {
	// Programs run thirty to an engine, over one draw of its tables: the
	// executor keys compiled filters and shared scans by predicate text,
	// which must name the columns read, not the variables that hold them,
	// for the next program may give the same name to another column.
	const programs, perEngine = 240, 30
	rng := rand.New(rand.NewSource(38))
	var ran, denied, answered int
	seen := map[string]int{}
	var g *gen
	var e *core.Engine
	for n := 0; n < programs; n++ {
		if n%perEngine == 0 {
			g = &gen{rng: rng}
			g.tables()
			e = diffEngine(t, g)
		}
		var src string
		var prog *prismalog.Program
		for prog == nil {
			if src = g.program(); n < len(fixedPrograms) {
				src = fixedPrograms[n]
			}
			prog, _ = prismalog.Parse(src) // unsafe draws are drawn again
		}
		// Every fourth program runs as a tenant that may read only some of
		// the tables and write b1 and b2.
		var readable map[string]bool
		if n%4 == 3 {
			readable = map[string]bool{}
			for _, b := range baseTables {
				readable[b.name] = rng.Intn(3) > 0
			}
		}
		s := diffSession(t, e, n, readable)
		check := func(when string) {
			t.Helper()
			for table := range reads(prog) {
				if readable != nil && !readable[table] {
					if _, err := e.DatalogProgram(s, src); !errors.Is(err, core.ErrAuth) {
						t.Fatalf("program %d%s reads %s without a grant: err = %v\n%s", n, when, table, err, src)
					}
					denied++
					return
				}
			}
			edb := prismalog.MapEDB{}
			for _, b := range baseTables {
				rel := value.NewRelation(value.NewSchema(make([]value.Column, b.arity)...))
				rel.Tuples = g.rows[b.name]
				edb[b.name] = rel
			}
			wants := make([]*value.Relation, len(prog.Queries))
			for i := range prog.Queries {
				want, _, err := prismalog.RefEvalQuery(prog, &prog.Queries[i], edb, prismalog.RefOptions{SemiNaive: true})
				if err != nil {
					t.Fatalf("program %d%s: reference: %v\n%s", n, when, err, src)
				}
				wants[i] = want
				if want.Len() > 0 {
					answered++
				}
			}
			// The program, then the same with its variables renamed, on one
			// engine: the executor keys compiled filters and shared scans
			// by predicate text, which must name the columns read, not the
			// variables they hold.
			for shift := range varPool {
				text := renameVars(src, shift)
				answers, err := e.DatalogProgram(s, text)
				if err != nil {
					t.Fatalf("program %d%s: %v\n%s", n, when, err, text)
				}
				for i, want := range wants {
					if got := answers[i]; got.Schema.Len() != want.Schema.Len() || !got.SameSet(want) {
						t.Fatalf("program %d%s, query %d:\nexecutor  %v\nreference %v\n%s", n, when, i+1, got.Tuples, want.Tuples, text)
					}
				}
			}
			for _, f := range g.features(prog) {
				seen[f]++
			}
			ran++
		}
		check("")
		// Inside a writing transaction the evaluation reads the
		// transaction's own pending writes.
		mustExec(t, s, "BEGIN")
		b1, b2 := g.rows["b1"], g.rows["b2"]
		ins := g.row(2)
		mustExec(t, s, fmt.Sprintf("INSERT INTO b1 VALUES (%s, %s)", ins[0].Quoted(), ins[1].Quoted()))
		g.rows["b1"] = append(g.rows["b1"], ins)
		k := rng.Intn(5)
		mustExec(t, s, fmt.Sprintf("DELETE FROM b2 WHERE a = %d", k))
		var kept []value.Tuple
		for _, r := range g.rows["b2"] {
			if r[0].IsNull() || r[0].Int() != int64(k) {
				kept = append(kept, r)
			}
		}
		g.rows["b2"] = kept
		check(" (inside a writing transaction)")
		mustExec(t, s, "ROLLBACK")
		g.rows["b1"], g.rows["b2"] = b1, b2
		s.Close()
	}
	t.Logf("%d evaluations compared (%d answers not empty), %d denied; features %v", ran, answered, denied, seen)
	if denied == 0 || ran < programs || answered < ran {
		t.Errorf("%d evaluations compared, %d answers not empty, %d denied: the corpus misses a case", ran, answered, denied)
	}
	for _, f := range features {
		if seen[f] == 0 {
			t.Errorf("no compared program has a %s", f)
		}
	}
}

// renameVars renames the variables of a generated program, each to the
// one shift places after it in varPool.
func renameVars(src string, shift int) string {
	return regexp.MustCompile(`\b[`+strings.Join(varPool, "")+`]\b`).ReplaceAllStringFunc(src, func(v string) string {
		return varPool[(slices.Index(varPool, v)+shift)%len(varPool)]
	})
}

// diffEngine loads g's tables into a fresh engine.
func diffEngine(t *testing.T, g *gen) *core.Engine {
	t.Helper()
	e := newEngine(t)
	admin := e.NewSession()
	defer admin.Close()
	for _, b := range baseTables {
		mustExec(t, admin, fmt.Sprintf(b.ddl, g.frags[b.name]))
		if err := e.LoadTable(b.name, g.rows[b.name]); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// diffSession opens the session program n runs in: a tenant's of its own,
// if readable says which tables it may read.
func diffSession(t *testing.T, e *core.Engine, n int, readable map[string]bool) *core.Session {
	t.Helper()
	s := e.NewSession()
	if readable == nil {
		return s
	}
	admin := e.NewSession()
	defer admin.Close()
	tenant := fmt.Sprintf("tenant%d", n)
	mustExec(t, admin, fmt.Sprintf(`CREATE USER %s PASSWORD 'pw'`, tenant))
	mustExec(t, admin, fmt.Sprintf(`GRANT INSERT, DELETE ON b1 TO %s`, tenant))
	mustExec(t, admin, fmt.Sprintf(`GRANT INSERT, DELETE ON b2 TO %s`, tenant))
	for table, ok := range readable {
		if ok {
			mustExec(t, admin, fmt.Sprintf("GRANT SELECT ON %s TO %s", table, tenant))
		}
	}
	u, err := e.Catalog().Authenticate(tenant, "pw")
	if err != nil {
		t.Fatal(err)
	}
	s.SetUser(u)
	return s
}

func mustExec(t *testing.T, s *core.Session, sql string) {
	t.Helper()
	if _, err := s.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}
