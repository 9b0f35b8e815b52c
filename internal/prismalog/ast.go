// Package prismalog implements PRISMAlog, the logic programming language
// of the PRISMA DBMS (paper §2.3): "based on definite, function-free
// Horn clauses", Prolog-like syntax, but *set-oriented* — "one of the
// main differences between pure Prolog and PRISMAlog is that the latter
// is set-oriented, which makes it more suitable for parallel
// evaluation". Its semantics is given by extended relational algebra:
// facts are tuples, rules are view definitions including recursion.
//
// Programs are evaluated bottom-up against extensional relations
// resolved from the database (base tables double as EDB predicates) by
// semi-naive fixpoint iteration, and in that algebra: every rule body is
// translated into a plan tree of scans, selections, joins and projections
// that the engine's optimizer and partitioned executor run (Executor), and
// only the known sets of the derived predicates stay at the coordinator.
package prismalog

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/value"
)

// Term is a constant or a variable.
type Term struct {
	IsVar bool
	Var   string      // variable name (IsVar)
	Val   value.Value // constant (otherwise)
}

// V makes a variable term.
func V(name string) Term { return Term{IsVar: true, Var: name} }

// anonPrefix starts the name the parser gives each anonymous variable
// `_`: no identifier can start with it, so each `_` is a variable of its
// own, and none is ever an answer column.
const anonPrefix = "_#"

func (t Term) anonymous() bool { return t.IsVar && strings.HasPrefix(t.Var, anonPrefix) }

// C makes a constant term.
func C(v value.Value) Term { return Term{Val: v} }

func (t Term) String() string {
	if t.anonymous() {
		return "_"
	}
	if t.IsVar {
		return t.Var
	}
	return t.Val.Quoted()
}

// Atom is a predicate applied to terms: parent(X, 'ann').
type Atom struct {
	Pred string
	Args []Term
}

func (a *Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Pred, strings.Join(parts, ", "))
}

func (a *Atom) key() predKey { return predKey{a.Pred, len(a.Args)} }

// Vars returns the distinct variable names in order of appearance.
func (a *Atom) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range a.Args {
		if t.IsVar && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// CmpLit is a built-in comparison literal: X > 5, X <> Y.
type CmpLit struct {
	Op   expr.CmpOp
	L, R Term
}

func (c *CmpLit) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// Literal is one body element: a relational atom or a comparison.
type Literal struct {
	Atom *Atom
	Cmp  *CmpLit
}

func (l Literal) String() string {
	if l.Atom != nil {
		return l.Atom.String()
	}
	return l.Cmp.String()
}

// Rule is a definite Horn clause: Head :- Body. An empty body makes it a
// fact (the head must then be ground).
type Rule struct {
	Head Atom
	Body []Literal
}

// IsFact reports whether the rule is a ground fact.
func (r *Rule) IsFact() bool { return len(r.Body) == 0 }

func (r *Rule) String() string {
	if r.IsFact() {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return fmt.Sprintf("%s :- %s.", r.Head.String(), strings.Join(parts, ", "))
}

// Query is a goal list: ?- ancestor('ann', X), X <> 'bob'.
type Query struct {
	Body []Literal
}

func (q *Query) String() string {
	parts := make([]string, len(q.Body))
	for i, l := range q.Body {
		parts[i] = l.String()
	}
	return "?- " + strings.Join(parts, ", ") + "."
}

// Vars returns the distinct variables of the query in appearance order —
// the output columns of its answer relation.
func (q *Query) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, l := range q.Body {
		if l.Atom == nil {
			continue
		}
		for _, t := range l.Atom.Args {
			if t.IsVar && !t.anonymous() && !seen[t.Var] {
				seen[t.Var] = true
				out = append(out, t.Var)
			}
		}
	}
	return out
}

// Program is a set of facts and rules plus optional queries.
type Program struct {
	Rules   []Rule
	Queries []Query
}

// predKey identifies a predicate by name and arity.
type predKey struct {
	name  string
	arity int
}

func (k predKey) String() string { return fmt.Sprintf("%s/%d", k.name, k.arity) }

// Validate performs the safety checks of definite function-free Horn
// clauses: every head variable must occur in a positive body atom, and
// comparison literals may only use bound variables.
func (p *Program) Validate() error {
	for i := range p.Rules {
		if err := checkRule(&p.Rules[i]); err != nil {
			return err
		}
	}
	for i := range p.Queries {
		if err := checkBody(p.Queries[i].Body, nil, p.Queries[i].String()); err != nil {
			return err
		}
	}
	return nil
}

func checkRule(r *Rule) error {
	if r.IsFact() {
		for _, t := range r.Head.Args {
			if t.IsVar {
				return fmt.Errorf("prismalog: fact %s has variable %s", r.Head.String(), t.Var)
			}
		}
		return nil
	}
	return checkBody(r.Body, r.Head.Vars(), r.String())
}

func checkBody(body []Literal, headVars []string, clause string) error {
	if len(body) == 0 {
		return fmt.Errorf("prismalog: empty body in %s", clause)
	}
	bound := map[string]bool{}
	atoms := 0
	for _, l := range body {
		if l.Atom != nil {
			atoms++
			for _, v := range l.Atom.Vars() {
				bound[v] = true
			}
		}
	}
	if atoms == 0 {
		return fmt.Errorf("prismalog: %s has no body atom", clause)
	}
	for _, v := range headVars {
		if !bound[v] {
			return fmt.Errorf("prismalog: unsafe rule %s: head variable %s not bound by a body atom", clause, V(v))
		}
	}
	for _, l := range body {
		if l.Cmp == nil {
			continue
		}
		for _, t := range []Term{l.Cmp.L, l.Cmp.R} {
			if t.IsVar && !bound[t.Var] {
				return fmt.Errorf("prismalog: unsafe comparison in %s: variable %s not bound by a body atom", clause, t.Var)
			}
		}
	}
	return nil
}
