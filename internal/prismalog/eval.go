package prismalog

import (
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/value"
)

// Executor is what an evaluation needs of the engine, all at the
// evaluation's one snapshot: the schemas of the base tables its rule
// bodies read, and a way to run the plans it makes of those bodies.
type Executor interface {
	// Table returns the schema of base table name, nil if there is none,
	// or an error if the evaluation may not read it.
	Table(name string) (*value.Schema, error)
	// Run optimizes and executes a plan and returns its rows.
	Run(root plan.Node) (*value.Relation, error)
}

// Stats reports evaluation effort.
type Stats struct {
	Iterations    int
	TuplesDerived int // candidate head tuples produced across all rounds
}

// derived is a derived predicate's extension, held at the coordinator:
// the tuples known so far in the order they were derived, those the last
// round added (the delta) and those this round is adding, and each
// column's kind — KindNull while the column has held only NULLs.
type derived struct {
	pred         predKey
	kinds        []value.Kind
	known        []value.Tuple
	seen         map[string]struct{}
	delta, fresh []value.Tuple
}

// add adds t unless it is known. A column takes the kind of the first
// value in it that is not NULL; a value of another kind is an error.
func (d *derived) add(t value.Tuple) error {
	key := t.Key()
	if _, dup := d.seen[key]; dup {
		return nil
	}
	for c, v := range t {
		switch k := v.Kind(); {
		case k == value.KindNull || k == d.kinds[c]:
		case d.kinds[c] == value.KindNull:
			d.kinds[c] = k
		default:
			return fmt.Errorf("prismalog: column %d of %s derived as both %s and %s", c+1, d.pred, d.kinds[c], k)
		}
	}
	d.seen[key] = struct{}{}
	d.known = append(d.known, t)
	d.fresh = append(d.fresh, t)
	return nil
}

// schema is the relation's schema, a column whose kind is not known yet
// having kind unknown.
func (d *derived) schema(unknown value.Kind) *value.Schema {
	cols := make([]value.Column, len(d.kinds))
	for i, k := range d.kinds {
		if k == value.KindNull {
			k = unknown
		}
		cols[i] = value.Column{Name: fmt.Sprintf("c%d", i), Kind: k}
	}
	return value.NewSchema(cols...)
}

type evaluation struct {
	x    Executor
	idb  map[predKey]*derived
	base map[string]*value.Schema
}

// Eval computes the extensions of all intensional predicates of prog
// bottom-up and returns them keyed "pred/arity". Every round runs each
// rule body as a plan on x — after the first round once per derived atom
// in it, that atom reading only the tuples the last round added — until a
// round adds none, as one must: rules make no values, so what they derive
// is finite.
func Eval(prog *Program, x Executor) (map[string]*value.Relation, Stats, error) {
	if err := prog.Validate(); err != nil {
		return nil, Stats{}, err
	}
	ev := &evaluation{x: x, idb: map[predKey]*derived{}, base: map[string]*value.Schema{}}
	for i := range prog.Rules {
		if k := prog.Rules[i].Head.key(); ev.idb[k] == nil {
			ev.idb[k] = &derived{pred: k, kinds: make([]value.Kind, k.arity), seen: map[string]struct{}{}}
		}
	}
	// Unknown predicates, arity mismatches and grants fail the evaluation
	// before anything runs.
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if err := ev.resolve(l.Atom); err != nil {
				return nil, Stats{}, err
			}
		}
	}
	var stats Stats
	var rules []*Rule
	for i := range prog.Rules {
		r := &prog.Rules[i]
		if !r.IsFact() {
			rules = append(rules, r)
			continue
		}
		t := make(value.Tuple, len(r.Head.Args))
		for j, a := range r.Head.Args {
			t[j] = a.Val
		}
		if err := ev.idb[r.Head.key()].add(t); err != nil {
			return nil, stats, err
		}
		stats.TuplesDerived++
	}
	for _, d := range ev.idb {
		d.fresh = nil // the first round reads the facts whole
	}

	for round := 0; ; round++ {
		stats.Iterations++
		for _, r := range rules {
			for _, deltaAt := range ev.variants(r, round) {
				root, err := ev.plan(r, deltaAt)
				if err != nil {
					return nil, stats, fmt.Errorf("prismalog: rule %s: %w", r, err)
				}
				if root == nil {
					continue
				}
				rel, err := x.Run(root)
				if err != nil {
					return nil, stats, err
				}
				stats.TuplesDerived += rel.Len()
				d := ev.idb[r.Head.key()]
				for _, t := range rel.Tuples {
					if err := d.add(t[:len(d.kinds)]); err != nil {
						return nil, stats, err
					}
				}
			}
		}
		grew := false
		for _, d := range ev.idb {
			d.delta, d.fresh = d.fresh, nil
			grew = grew || len(d.delta) > 0
		}
		if !grew {
			break
		}
	}

	out := map[string]*value.Relation{}
	for k, d := range ev.idb {
		out[k.String()] = &value.Relation{Schema: d.schema(value.KindString), Tuples: d.known}
	}
	return out, stats, nil
}

// resolve finds the base table an atom reads, if it reads one.
func (ev *evaluation) resolve(a *Atom) (err error) {
	if a == nil || ev.idb[a.key()] != nil {
		return nil
	}
	schema, ok := ev.base[a.Pred]
	if !ok {
		if schema, err = ev.x.Table(a.Pred); err != nil {
			return err
		}
		if schema == nil {
			return fmt.Errorf("prismalog: unknown predicate %s", a.key())
		}
		ev.base[a.Pred] = schema
	}
	if schema.Len() != len(a.Args) {
		return fmt.Errorf("prismalog: predicate %s used with arity %d but relation has %d columns",
			a.Pred, len(a.Args), schema.Len())
	}
	return nil
}

// variants lists the body atoms r reads through their deltas this round,
// -1 meaning none: the first round reads everything whole, and later ones
// run r once per derived atom whose predicate grew in the last round.
func (ev *evaluation) variants(r *Rule, round int) []int {
	if round == 0 {
		return []int{-1}
	}
	var out []int
	for i, l := range r.Body {
		if l.Atom != nil {
			if d := ev.idb[l.Atom.key()]; d != nil && len(d.delta) > 0 {
				out = append(out, i)
			}
		}
	}
	return out
}

// plan translates rule r's body, with body atom deltaAt reading its
// predicate's delta, into a plan tree: each atom a leaf (leaf), joined in
// an order where each shares a variable with those before it where the
// body allows, starting from the delta, the smallest input; each
// comparison a selection as soon as its variables are bound; and the head
// a projection under a Distinct. It is nil when a derived relation the
// body reads is empty, so r derives nothing.
func (ev *evaluation) plan(r *Rule, deltaAt int) (plan.Node, error) {
	var parts []part
	var cmps []*CmpLit
	first := 0
	for i, l := range r.Body {
		if l.Cmp != nil {
			cmps = append(cmps, l.Cmp)
			continue
		}
		if i == deltaAt {
			first = len(parts)
		}
		p, err := ev.leaf(l.Atom, i == deltaAt)
		if err != nil || p.node == nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	cur, cmps, err := parts[first].filter(cmps)
	rest := slices.Delete(parts, first, first+1)
	for err == nil && len(rest) > 0 {
		i := max(slices.IndexFunc(rest, cur.shares), 0)
		if cur, err = cur.join(rest[i]); err == nil {
			cur, cmps, err = cur.filter(cmps)
		}
		rest = slices.Delete(rest, i, i+1)
	}
	if err != nil {
		return nil, err
	}
	exprs := make([]expr.Expr, len(r.Head.Args))
	for i, t := range r.Head.Args {
		exprs[i], _ = cur.term(t)
	}
	if len(exprs) == 0 { // a ground query: a row, if the body holds
		exprs = []expr.Expr{konst()}
	}
	head, err := project(cur.node, exprs)
	if err != nil {
		return nil, err
	}
	return &plan.Distinct{Child: head}, nil
}

// part is a partial plan of a rule body and, for each of its columns, the
// variable whose value it holds: "" for a column that holds none of its
// own — a constant argument, a repeated variable, a join key bound before.
type part struct {
	node plan.Node
	vars []string
}

// leaf is a body atom's plan: a Scan of its base table or the Values of
// its derived relation (the delta, if delta is set), under a Select that
// pins its constants and repeated variables. Its node is nil when the
// derived relation is empty.
func (ev *evaluation) leaf(a *Atom, delta bool) (part, error) {
	var src plan.Node
	if d := ev.idb[a.key()]; d == nil {
		src = &plan.Scan{Table: a.Pred, Out: ev.base[a.Pred]}
	} else {
		tuples := d.known
		if delta {
			tuples = d.delta
		}
		if len(tuples) == 0 {
			return part{}, nil
		}
		src = &plan.Values{Rel: &value.Relation{Schema: d.schema(value.KindNull), Tuples: tuples}}
	}
	p := part{vars: make([]string, len(a.Args))}
	var conds []expr.Expr
	for i, t := range a.Args {
		if !t.IsVar {
			conds = append(conds, expr.NewCmp(expr.EQ, column(src, i), expr.NewConst(t.Val)))
		} else if j := slices.Index(p.vars, t.Var); j >= 0 {
			conds = append(conds, expr.NewCmp(expr.EQ, column(src, i), column(src, j)))
		} else {
			p.vars[i] = t.Var
		}
	}
	var err error
	p.node, err = filtered(src, conds)
	return p, err
}

func (p part) shares(q part) bool {
	return slices.ContainsFunc(q.vars, func(v string) bool { return v != "" && slices.Contains(p.vars, v) })
}

// column references column i of node by the name it has there, as a SQL
// column reference does: the executor keys a scan's predicate by its
// text, so the text must tell the columns apart, which variable names do
// not — X may be column 0 of one atom and column 1 of the next.
func column(node plan.Node, i int) *expr.Col {
	c := expr.NewCol(node.Schema().Column(i).Name)
	c.Index = i
	return c
}

// term is t over p's columns: a constant, or the column of a variable p
// binds (ok false if it binds none).
func (p part) term(t Term) (e expr.Expr, ok bool) {
	if !t.IsVar {
		return expr.NewConst(t.Val), true
	}
	i := slices.Index(p.vars, t.Var)
	if i < 0 {
		return nil, false
	}
	return column(p.node, i), true
}

// filter applies the comparisons whose variables p binds and returns the
// rest.
func (p part) filter(cmps []*CmpLit) (part, []*CmpLit, error) {
	var conds []expr.Expr
	var rest []*CmpLit
	for _, c := range cmps {
		l, lok := p.term(c.L)
		r, rok := p.term(c.R)
		if lok && rok {
			conds = append(conds, expr.NewCmp(c.Op, l, r))
		} else {
			rest = append(rest, c)
		}
	}
	var err error
	p.node, err = filtered(p.node, conds)
	return p, rest, err
}

// join joins p with q on their shared variables — or, sharing none, on a
// constant column each then projects, for the executor has no cross
// product.
func (p part) join(q part) (part, error) {
	var pk, qk []int
	vars := slices.Clone(p.vars)
	for i, v := range q.vars {
		if j := slices.Index(p.vars, v); v != "" && j >= 0 {
			pk, qk, v = append(pk, j), append(qk, i), ""
		}
		vars = append(vars, v)
	}
	if len(pk) == 0 {
		var err error
		if p, err = p.withKonst(); err == nil {
			q, err = q.withKonst()
		}
		if err != nil {
			return part{}, err
		}
		pk, qk, vars = []int{len(p.vars) - 1}, []int{len(q.vars) - 1}, append(p.vars, q.vars...)
	}
	out := p.node.Schema().Concat(q.node.Schema())
	return part{node: &plan.Join{Left: p.node, Right: q.node, LeftKeys: pk, RightKeys: qk, Out: out}, vars: vars}, nil
}

// withKonst projects p's columns and a constant one after them.
func (p part) withKonst() (part, error) {
	exprs := make([]expr.Expr, len(p.vars), len(p.vars)+1)
	for i := range p.vars {
		exprs[i] = column(p.node, i)
	}
	node, err := project(p.node, append(exprs, konst()))
	return part{node: node, vars: append(slices.Clone(p.vars), "")}, err
}

func konst() expr.Expr { return expr.NewConst(value.NewInt(0)) }

// filtered selects child's rows that satisfy every condition. The
// conditions are bound here, so a comparison of incomparable kinds fails
// as it does in a SQL WHERE.
func filtered(child plan.Node, conds []expr.Expr) (plan.Node, error) {
	if len(conds) == 0 {
		return child, nil
	}
	pred := expr.Conjoin(conds)
	if _, err := expr.Bind(pred, child.Schema()); err != nil {
		return nil, err
	}
	return &plan.Select{Child: child, Pred: pred}, nil
}

// project computes exprs over child, each a column named as it reads.
func project(child plan.Node, exprs []expr.Expr) (plan.Node, error) {
	cols := make([]value.Column, len(exprs))
	names := make([]string, len(exprs))
	for i, ex := range exprs {
		k, err := expr.Bind(ex, child.Schema())
		if err != nil {
			return nil, err
		}
		cols[i] = value.Column{Name: ex.String(), Kind: k}
		names[i] = cols[i].Name
	}
	return &plan.Project{Child: child, Exprs: exprs, Names: names, Out: value.NewSchema(cols...)}, nil
}

// EvalQuery evaluates all rules of prog and answers q. The answer's
// columns are the query's distinct named variables in appearance order.
func EvalQuery(prog *Program, q *Query, x Executor) (*value.Relation, Stats, error) {
	// Rewrite the query as a rule with a reserved head predicate: no
	// predicate the parser reads can start with '_'.
	vars := q.Vars()
	head := Atom{Pred: "__answer__"}
	for _, v := range vars {
		head.Args = append(head.Args, V(v))
	}
	aug := &Program{Rules: append(append([]Rule{}, prog.Rules...), Rule{Head: head, Body: q.Body})}
	results, stats, err := Eval(aug, x)
	if err != nil {
		return nil, stats, err
	}
	rel := results[head.key().String()]
	cols := rel.Schema.Columns()
	for i := range cols {
		cols[i].Name = vars[i]
	}
	rel.Schema = value.NewSchema(cols...)
	return rel, stats, nil
}
