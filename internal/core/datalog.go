package core

import (
	"fmt"
	"sync"

	"repro/internal/catalog"
	"repro/internal/prismalog"
	"repro/internal/value"
)

// The PRISMAlog interface (paper §2.3): base tables are the extensional
// database ("facts correspond to tuples in relations in the database"),
// registered rules are view definitions including recursion, and queries
// evaluate bottom-up with semi-naive iteration.

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

// engineEDB resolves extensional predicates as base-table scans at the
// evaluation's pinned snapshot. Scanned tables are cached for the
// duration of one evaluation.
type engineEDB struct {
	e   *Engine
	ctx *execCtx

	mu    sync.Mutex
	cache map[string]*value.Relation
	err   error
}

// Relation implements prismalog.EDB.
func (edb *engineEDB) Relation(pred string) (*value.Relation, bool) {
	edb.mu.Lock()
	if rel, ok := edb.cache[pred]; ok {
		edb.mu.Unlock()
		return rel, true
	}
	edb.mu.Unlock()

	t, err := edb.e.lookupTable(pred)
	if err != nil {
		return nil, false
	}
	// Grants bite exactly where base tables resolve: a PRISMAlog rule
	// body reading an unauthorized table fails the whole evaluation.
	if err := edb.ctx.s.checkAccess([]tableAccess{{pred, catalog.PrivSelect}}); err != nil {
		edb.recordErr(err)
		return nil, false
	}
	all := make([]int, len(t.frags))
	for i := range all {
		all[i] = i
	}
	p := edb.e.scanFragments(edb.ctx, t, all, nil, t.def.Schema, value.AllCols)
	rel, err := edb.e.gatherRows(edb.ctx, p, t.def.Schema)
	if err == nil {
		// A table gathered for the evaluation is the statement's
		// materialization like any other.
		err = edb.ctx.mem.breach()
	}
	if err != nil {
		edb.recordErr(err)
		return nil, false
	}
	edb.mu.Lock()
	edb.cache[pred] = rel
	edb.mu.Unlock()
	return rel, true
}

func (edb *engineEDB) recordErr(err error) {
	edb.mu.Lock()
	if edb.err == nil {
		edb.err = err
	}
	edb.mu.Unlock()
}

// DatalogQuery evaluates a PRISMAlog query (optionally prefixed "?-")
// against the engine's rule base and base tables. The answer's columns
// are the query's variables.
func (e *Engine) DatalogQuery(s *Session, query string) (*value.Relation, error) {
	q, err := prismalog.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	rules := append([]prismalog.Rule(nil), e.rules...)
	e.mu.Unlock()
	prog := &prismalog.Program{Rules: rules}

	view, release, err := s.readView()
	if err != nil {
		return nil, err
	}
	defer release()
	edb := &engineEDB{e: e, ctx: s.newExecCtx(view), cache: map[string]*value.Relation{}}
	rel, _, err := prismalog.EvalQuery(prog, q, edb, prismalog.Options{SemiNaive: e.semiNaive})
	if edb.err != nil {
		err = edb.err
	}
	if err != nil {
		return nil, err
	}
	return rel, nil
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
	e.mu.Lock()
	combined := &prismalog.Program{Rules: append(append([]prismalog.Rule(nil), e.rules...), prog.Rules...)}
	e.mu.Unlock()

	view, release, err := s.readView()
	if err != nil {
		return nil, err
	}
	defer release()
	edb := &engineEDB{e: e, ctx: s.newExecCtx(view), cache: map[string]*value.Relation{}}
	var answers []*value.Relation
	for i := range prog.Queries {
		rel, _, err := prismalog.EvalQuery(combined, &prog.Queries[i], edb, prismalog.Options{SemiNaive: e.semiNaive})
		if edb.err != nil {
			err = edb.err
		}
		if err != nil {
			return nil, err
		}
		answers = append(answers, rel)
	}
	return answers, nil
}
