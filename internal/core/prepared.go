package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/lru"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// PreparedStmt is a statement parsed and compiled once — a SELECT
// translated and optimized, a write's target resolved and its expressions
// bound — and executed many times with bound parameter values: the
// XPRS-style compile-once discipline of paper §2.2 applied at the
// statement level.
// A PreparedStmt is safe for concurrent use: executions never mutate the
// compiled form, and a schema change detected via the catalog version
// counter swaps in a fresh compilation under the statement's lock.
type PreparedStmt struct {
	e *Engine
	// text is what gets compiled: the source as prepared, or for the plan
	// cache the normalized key, a '?' where each literal was.
	text string
	auto bool // a plan-cache entry: binds its literals strictly

	mu       sync.Mutex // serializes replans only
	compiled atomic.Pointer[compiledStmt]
}

// newPreparedStmt wraps one compilation in an executable handle.
func newPreparedStmt(e *Engine, text string, auto bool, cs *compiledStmt) *PreparedStmt {
	ps := &PreparedStmt{e: e, text: text, auto: auto}
	ps.compiled.Store(cs)
	return ps
}

// compiledStmt is one immutable compilation of a statement's text (for a
// plan-cache entry, its key): a SELECT's plan, a write, or the AST of any
// other statement.
type compiledStmt struct {
	nParams int
	kinds   []value.Kind // expected kind per slot (KindNull = unknown)
	catVer  uint64       // catalog version this compilation is valid for
	sel     plan.Node    // optimized plan of a SELECT
	planStr string       // pre-rendered plan (parameters shown as $n)
	write   *write       // compiled INSERT, UPDATE or DELETE
	ast     sqlparse.Stmt
	// access lists the tables a SELECT or a write touches for the
	// per-execution grant check (AST statements check in execStmt).
	// Recorded at compile time so a cached shared plan still enforces
	// each executing session's own grants.
	access []tableAccess
}

// Text returns the statement's SQL source.
func (ps *PreparedStmt) Text() string { return ps.text }

// NumParams returns the statement's parameter arity.
func (ps *PreparedStmt) NumParams() int { return ps.compiled.Load().nParams }

// current returns a compilation valid for the present catalog version,
// transparently recompiling the statement's text (a plan-cache entry's
// key) after DDL invalidated the cached plan.
// The fast path is two atomic loads; ps.mu guards only replans.
func (ps *PreparedStmt) current() (*compiledStmt, error) {
	ver := ps.e.cat.Version()
	if cs := ps.compiled.Load(); cs != nil && cs.catVer == ver {
		return cs, nil
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if cs := ps.compiled.Load(); cs != nil && cs.catVer == ver {
		return cs, nil // another execution replanned first
	}
	cs, err := ps.e.compileText(ps.text)
	if err != nil {
		return nil, fmt.Errorf("core: replan after schema change: %w", err)
	}
	ps.compiled.Store(cs)
	return cs, nil
}

// Prepare parses and plans one statement with '?' or '$n' placeholders.
// The returned handle is bound to the engine, not the session; any
// session may execute it.
func (s *Session) Prepare(sql string) (*PreparedStmt, error) {
	cs, err := s.e.compileText(sql)
	if err != nil {
		return nil, err
	}
	return newPreparedStmt(s.e, sql, false, cs), nil
}

// ExecPrepared executes a prepared statement with the given parameter
// values (one per slot, in order).
func (s *Session) ExecPrepared(ps *PreparedStmt, args []value.Value) (*Result, error) {
	return s.ExecPreparedTo(nil, ps, args)
}

// ExecPreparedTo is ExecPrepared with a SELECT's tuples encoded onto a
// non-nil dst (see ExecTo).
func (s *Session) ExecPreparedTo(dst []byte, ps *PreparedStmt, args []value.Value) (*Result, error) {
	start := s.startClock()
	r, err := s.routePrepared(ps, args)
	return s.execRouted(start, r, err, dst)
}

// QueryPrepared is ExecPrepared returning just the relation.
func (s *Session) QueryPrepared(ps *PreparedStmt, args []value.Value) (*value.Relation, error) {
	res, err := s.ExecPrepared(ps, args)
	if err != nil {
		return nil, err
	}
	if res.Rel == nil {
		return nil, fmt.Errorf("core: statement produced no relation")
	}
	return res.Rel, nil
}

// routePrepared readies one execution: version check, arity/kind
// validation, the executing session's grant check, and for a SELECT
// parameter substitution into a fresh plan copy (a write substitutes as
// it executes).
func (s *Session) routePrepared(ps *PreparedStmt, args []value.Value) (routed, error) {
	cs, err := ps.current()
	if err != nil {
		return routed{}, err
	}
	if len(args) != cs.nParams {
		return routed{}, fmt.Errorf("core: statement wants %d parameters, got %d", cs.nParams, len(args))
	}
	// Explicit prepared statements coerce lossless numeric binds; the
	// auto-parameterized path is strict, so any kind mismatch becomes
	// errBindKind and the statement re-runs uncached with the exact
	// semantics the literal would have had without the cache (Conform
	// rejecting a FLOAT insert into an INT column, numeric comparison
	// across kinds, and so on).
	bound, err := coerceArgs(args, cs.kinds, ps.auto)
	if err != nil {
		return routed{}, err
	}
	if cs.ast != nil {
		return routed{ast: cs.ast}, nil
	}
	if err := s.checkAccess(cs.access); err != nil {
		return routed{}, err
	}
	if cs.write != nil {
		return routed{write: cs.write, args: bound}, nil
	}
	root := cs.sel
	if cs.nParams > 0 {
		if root, err = bindPlan(root, bound); err != nil {
			return routed{}, err
		}
	}
	return routed{sel: root, planStr: cs.planStr}, nil
}

// compileText parses sql (placeholders allowed) and compiles it.
func (e *Engine) compileText(sql string) (*compiledStmt, error) {
	st, nparams, err := sqlparse.ParseStmt(sql)
	if err != nil {
		return nil, err
	}
	return e.compileParsed(st, nparams)
}

// errBindKind tags parameter-kind failures from coerceArgs. Explicit
// prepared statements surface it to the caller; the plan cache's
// auto-parameterized path must instead fall back to the uncached
// execution so that caching never changes a legal statement's outcome
// (`WHERE id = 1.5` on an INT key is an empty result, not an error).
var errBindKind = fmt.Errorf("core: parameter kind mismatch")

// compileParsed compiles a parsed statement: a SELECT translates and
// optimizes to a plan, an INSERT, UPDATE or DELETE to a write; everything
// else keeps its AST. Parameter kinds are inferred for bind-time
// validation.
func (e *Engine) compileParsed(st sqlparse.Stmt, nparams int) (*compiledStmt, error) {
	cs := &compiledStmt{
		nParams: nparams,
		kinds:   make([]value.Kind, nparams),
		catVer:  e.cat.Version(),
	}
	if sel, ok := st.(*sqlparse.Select); ok {
		root, err := e.translateSelect(sel)
		if err != nil {
			return nil, err
		}
		root = e.opt.Optimize(root)
		cs.sel = root
		cs.planStr = plan.Format(root)
		cs.access = stmtAccess(sel)
		inferPlanParamKinds(root, cs.kinds)
		return cs, nil
	}
	w, err := e.compileWrite(st, cs.kinds)
	if err != nil {
		return nil, err
	}
	if w == nil {
		cs.ast = st
		return cs, nil
	}
	cs.write = w
	cs.access = stmtAccess(st)
	return cs, nil
}

// runSelectPlanStr executes an optimized plan at the session's read view,
// its result gathered as execPlan does for dst — before the snapshot is
// released; planStr is its rendering (prepared executions render once at
// compile time, not per execution). The read takes no locks.
func (s *Session) runSelectPlanStr(root plan.Node, planStr string, dst []byte) (*Result, error) {
	view, release, err := s.readView()
	if err != nil {
		return nil, err
	}
	res, err := s.e.execPlan(s.newExecCtx(view), root, dst)
	release()
	if err != nil {
		return nil, err
	}
	res.Plan = planStr
	return res, nil
}

// ---------- parameter kind inference and coercion ----------

// inferPlanParamKinds walks a compiled plan's expressions, recording the
// expected kind of each parameter slot.
func inferPlanParamKinds(root plan.Node, kinds []value.Kind) {
	if len(kinds) == 0 {
		return
	}
	plan.Walk(root, func(n plan.Node) {
		switch t := n.(type) {
		case *plan.Scan:
			if t.Pred != nil {
				expr.InferParamKinds(t.Pred, kinds)
			}
		case *plan.IndexProbe:
			if p, ok := t.Key.(*expr.Param); ok && p.Ord < len(kinds) {
				kinds[p.Ord] = t.Out.Column(t.Col).Kind
			}
			if t.Rest != nil {
				expr.InferParamKinds(t.Rest, kinds)
			}
		case *plan.Select:
			expr.InferParamKinds(t.Pred, kinds)
		case *plan.Join:
			if t.Residual != nil {
				expr.InferParamKinds(t.Residual, kinds)
			}
		case *plan.Project:
			for _, ex := range t.Exprs {
				expr.InferParamKinds(ex, kinds)
			}
		}
	})
}

// coerceArgs validates one value per slot against the inferred kinds.
// NULL binds any slot; numeric kinds interchange like SQL literals do
// (an integral FLOAT bound to an INT slot coerces so the index probe
// keys exactly; a fractional one passes through unchanged and takes
// the generic-comparison path, where `id = 99.5` is simply empty and
// `salary > 99.5` compares numerically); everything else — a string
// for an INT slot and the like — is an error. strict refuses every
// mismatch instead (the plan cache's mode: a mismatched literal must
// take the uncached path, not a coerced one).
func coerceArgs(args []value.Value, kinds []value.Kind, strict bool) ([]value.Value, error) {
	// Common case first: every value already matches (or has no
	// expectation); return the caller's slice without allocating.
	out := args
	copied := false
	for i, v := range args {
		want := value.KindNull
		if i < len(kinds) {
			want = kinds[i]
		}
		if v.IsNull() || want == value.KindNull || v.Kind() == want {
			if copied {
				out[i] = v
			}
			continue
		}
		if strict {
			// One coercion is safe even here: a small INT literal used
			// where a FLOAT is expected compares identically either
			// way, and without it a hot shape like `price > 100` on a
			// FLOAT column would fall back to the uncached path on
			// every execution.
			if want == value.KindFloat && v.Kind() == value.KindInt &&
				v.Int() >= -(1<<53) && v.Int() <= 1<<53 {
				if !copied {
					out = make([]value.Value, len(args))
					copy(out, args[:i])
					copied = true
				}
				out[i] = value.NewFloat(float64(v.Int()))
				continue
			}
			return nil, fmt.Errorf("%w: parameter $%d: %s value where %s is expected",
				errBindKind, i+1, v.Kind(), want)
		}
		if !copied {
			out = make([]value.Value, len(args))
			copy(out, args[:i])
			copied = true
		}
		switch {
		case want == value.KindFloat && v.Kind() == value.KindInt:
			out[i] = value.NewFloat(float64(v.Int()))
		case want == value.KindInt && v.Kind() == value.KindFloat:
			f := v.Float()
			if f != math.Trunc(f) || f < math.MinInt64 || f > math.MaxInt64 {
				out[i] = v // fractional: generic numeric comparison applies
			} else {
				out[i] = value.NewInt(int64(f))
			}
		default:
			return nil, fmt.Errorf("%w: parameter $%d: cannot bind %s value %s to %s",
				errBindKind, i+1, v.Kind(), v.Quoted(), want)
		}
	}
	return out, nil
}

// ---------- parameter substitution ----------

// bindPlan returns a copy of the plan with every Param replaced by its
// bound constant. Schemas, key lists and methods are shared (they are
// immutable during execution); only nodes and expressions are copied.
func bindPlan(n plan.Node, args []value.Value) (plan.Node, error) {
	sub := func(e expr.Expr) (expr.Expr, error) {
		if e == nil {
			return nil, nil
		}
		return expr.SubstParams(e, args)
	}
	switch t := n.(type) {
	case *plan.Scan:
		c := *t
		var err error
		if c.Pred, err = sub(t.Pred); err != nil {
			return nil, err
		}
		return &c, nil
	case *plan.IndexProbe:
		c := *t
		var err error
		if c.Key, err = sub(t.Key); err != nil {
			return nil, err
		}
		if c.Rest, err = sub(t.Rest); err != nil {
			return nil, err
		}
		return &c, nil
	case *plan.Select:
		c := *t
		var err error
		if c.Child, err = bindPlan(t.Child, args); err != nil {
			return nil, err
		}
		if c.Pred, err = sub(t.Pred); err != nil {
			return nil, err
		}
		return &c, nil
	case *plan.Project:
		c := *t
		var err error
		if c.Child, err = bindPlan(t.Child, args); err != nil {
			return nil, err
		}
		c.Exprs = make([]expr.Expr, len(t.Exprs))
		for i, ex := range t.Exprs {
			if c.Exprs[i], err = sub(ex); err != nil {
				return nil, err
			}
		}
		return &c, nil
	case *plan.Join:
		c := *t
		var err error
		if c.Left, err = bindPlan(t.Left, args); err != nil {
			return nil, err
		}
		if c.Right, err = bindPlan(t.Right, args); err != nil {
			return nil, err
		}
		if c.Residual, err = sub(t.Residual); err != nil {
			return nil, err
		}
		return &c, nil
	case *plan.Exchange:
		c := *t
		var err error
		if c.Child, err = bindPlan(t.Child, args); err != nil {
			return nil, err
		}
		return &c, nil
	case *plan.Aggregate:
		c := *t
		var err error
		if c.Child, err = bindPlan(t.Child, args); err != nil {
			return nil, err
		}
		return &c, nil
	case *plan.Sort:
		c := *t
		var err error
		if c.Child, err = bindPlan(t.Child, args); err != nil {
			return nil, err
		}
		return &c, nil
	case *plan.Distinct:
		c := *t
		var err error
		if c.Child, err = bindPlan(t.Child, args); err != nil {
			return nil, err
		}
		return &c, nil
	case *plan.Limit:
		c := *t
		var err error
		if c.Child, err = bindPlan(t.Child, args); err != nil {
			return nil, err
		}
		return &c, nil
	}
	return nil, fmt.Errorf("core: cannot bind parameters into plan node %T", n)
}

// ---------- engine plan cache ----------

// planCacheSize caps the statement shapes the engine plan cache holds.
const planCacheSize = 256

// planCache is the engine-level LRU of auto-parameterized statements,
// keyed by normalized text. A nil PreparedStmt marks a statement shape
// whose key does not parse with one slot per literal as known
// non-cacheable, so the key is not parsed again.
type planCache struct {
	mu  sync.Mutex
	lru *lru.Cache[string, *PreparedStmt]
}

func newPlanCache() *planCache {
	return &planCache{lru: lru.New[string, *PreparedStmt](planCacheSize)}
}

// get returns the cached statement and whether the key was present.
func (pc *planCache) get(key string) (*PreparedStmt, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lru.Get(key)
}

// put inserts or refreshes a key, evicting the least-recently-used
// entry beyond capacity.
func (pc *planCache) put(key string, ps *PreparedStmt) {
	pc.mu.Lock()
	pc.lru.Put(key, ps)
	pc.mu.Unlock()
}

// Len reports the number of cached statement shapes.
func (pc *planCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lru.Len()
}
