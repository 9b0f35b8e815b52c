package core

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/prismalog"
	"repro/internal/value"
)

// The PRISMAlog interface (paper §2.3): base tables are the extensional
// database ("facts correspond to tuples in relations in the database"),
// registered rules are view definitions including recursion, and queries
// evaluate bottom-up with semi-naive iteration on the executor every SQL
// statement uses. prismalog translates each rule body into a plan tree;
// this file resolves the base tables those plans scan, grants checked,
// and optimizes and runs them, all at one read view and in one execCtx, so
// the simulated machine is charged every operator and the tenant's budget
// everything the evaluation gathers at the coordinator.

// RegisterRules parses PRISMAlog clauses and adds them to the engine's
// rule base. Queries are not allowed here; use DatalogQuery.
func (e *Engine) RegisterRules(src string) error {
	prog, err := prismalog.Parse(src)
	if err != nil {
		return err
	}
	if len(prog.Queries) > 0 {
		return fmt.Errorf("core: RegisterRules takes facts and rules only; use DatalogQuery for queries")
	}
	e.mu.Lock()
	e.rules = append(e.rules, prog.Rules...)
	e.mu.Unlock()
	return nil
}

// ClearRules empties the rule base.
func (e *Engine) ClearRules() {
	e.mu.Lock()
	e.rules = nil
	e.mu.Unlock()
}

// datalogExec is the prismalog.Executor of one evaluation.
type datalogExec struct {
	e   *Engine
	ctx *execCtx
}

// Table implements prismalog.Executor. Grants bite exactly where base
// tables resolve: a rule body reading an unauthorized table fails the
// whole evaluation.
func (x datalogExec) Table(name string) (*value.Schema, error) {
	t, err := x.e.lookupTable(name)
	if err != nil {
		return nil, nil // there is no such table
	}
	if err := x.ctx.s.checkAccess([]tableAccess{{name, catalog.PrivSelect}}); err != nil {
		return nil, err
	}
	return t.def.Schema, nil
}

// Run implements prismalog.Executor.
func (x datalogExec) Run(root plan.Node) (*value.Relation, error) {
	res, err := x.e.execPlan(x.ctx, x.e.opt.Optimize(root), nil)
	if err != nil {
		return nil, err
	}
	return res.Rel, nil
}

// EvalDatalog hands fn the executor of one PRISMAlog evaluation in s: the
// base tables at one read view (inside a transaction, its snapshot and
// pending writes), every plan in one execCtx.
func (e *Engine) EvalDatalog(s *Session, fn func(prismalog.Executor) error) error {
	view, release, err := s.readView()
	if err != nil {
		return err
	}
	defer release()
	return fn(datalogExec{e: e, ctx: s.newExecCtx(view)})
}

// DatalogQuery evaluates a PRISMAlog query (optionally prefixed "?-")
// against the engine's rule base and base tables. The answer's columns
// are the query's variables.
func (e *Engine) DatalogQuery(s *Session, query string) (*value.Relation, error) {
	q, err := prismalog.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	answers, err := e.datalog(s, &prismalog.Program{Queries: []prismalog.Query{*q}})
	if err != nil {
		return nil, err
	}
	return answers[0], nil
}

// DatalogProgram runs a complete program (facts, rules and one or more
// queries) in one shot against the engine's tables, returning the answer
// of each query in order. The program's own rules are used alongside the
// engine's registered rule base.
func (e *Engine) DatalogProgram(s *Session, src string) ([]*value.Relation, error) {
	prog, err := prismalog.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.datalog(s, prog)
}

// datalog answers prog's queries over its rules and the rule base, in one
// evaluation.
func (e *Engine) datalog(s *Session, prog *prismalog.Program) ([]*value.Relation, error) {
	e.mu.RLock()
	combined := &prismalog.Program{Rules: append(append([]prismalog.Rule(nil), e.rules...), prog.Rules...)}
	e.mu.RUnlock()
	var answers []*value.Relation
	err := e.EvalDatalog(s, func(x prismalog.Executor) error {
		for i := range prog.Queries {
			rel, _, err := prismalog.EvalQuery(combined, &prog.Queries[i], x)
			if err != nil {
				return err
			}
			answers = append(answers, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return answers, nil
}
