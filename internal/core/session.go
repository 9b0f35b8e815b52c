package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/ofm"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/txn"
	"repro/internal/value"
)

// Session is one client's connection to the engine. Each session gets
// its own coordinator PE — the paper's "for each query a new instance is
// created, possibly running at its own processor" — and may hold an
// explicit transaction across statements.
type Session struct {
	e  *Engine
	pe int
	tx *txn.Txn

	// user is the authenticated tenant (nil = unrestricted local
	// session); every statement checks its per-table grants.
	user *catalog.User
	// memBudget caps one statement's materialized working memory in
	// bytes (0 = unlimited); breaches abort with ErrMemBudget.
	memBudget int64

	// stmtTimeout bounds lock waits for this session's statements; zero
	// waits forever. A timed-out statement aborts its transaction with a
	// retryable txn.ErrTimeout instead of blocking behind a lock holder.
	stmtTimeout time.Duration

	// curMu guards cursors: every open Cursor registers here so Close can
	// settle abandoned streams (releasing their snapshot pins) even when
	// the caller never closed them — an abnormal teardown must not wedge
	// the GC horizon.
	curMu   sync.Mutex
	cursors map[*Cursor]struct{}
}

// SetStatementTimeout bounds how long this session's statements may wait
// on locks. It applies to transactions begun after the call (including
// autocommit ones); d <= 0 restores the unbounded default. Equivalent to
// executing `SET STATEMENT_TIMEOUT=<ms>`.
func (s *Session) SetStatementTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.stmtTimeout = d
	if s.tx != nil {
		s.tx.SetLockTimeout(d)
	}
}

// NewSession opens a session on a round-robin-assigned coordinator PE.
func (e *Engine) NewSession() *Session {
	return &Session{e: e, pe: e.coordinatorPE()}
}

// PE returns the session's coordinator processing element.
func (s *Session) PE() int { return s.pe }

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.tx != nil }

// transaction returns the open transaction, or begins an autocommit one.
func (s *Session) transaction() (*txn.Txn, bool, error) {
	if s.tx != nil {
		if s.tx.State() != txn.Active {
			return nil, false, fmt.Errorf("core: transaction is %s; ROLLBACK to continue", s.tx.State())
		}
		return s.tx, false, nil
	}
	tx := s.e.txns.Begin()
	tx.SetLockTimeout(s.stmtTimeout)
	return tx, true, nil
}

// readView establishes the version view for one read-only statement and
// returns it with a release func the caller invokes exactly once, when
// nothing it read is needed any more.
//
// A read inside an explicit transaction sees the snapshot pinned at the
// transaction's first read (plus its own pending writes), and the
// transaction holds the pin; a standalone SELECT pins a fresh snapshot
// for just that statement. No transaction work happens on the read path
// and no locks are taken.
func (s *Session) readView() (ofm.View, func(), error) {
	if s.tx != nil {
		if s.tx.State() != txn.Active {
			return ofm.View{}, nil, fmt.Errorf("core: transaction is %s; ROLLBACK to continue", s.tx.State())
		}
		return ofm.View{TS: s.tx.Snapshot(), Tx: s.tx.ID()}, func() {}, nil
	}
	ts, release := s.e.txns.PinSnapshot()
	return ofm.View{TS: ts}, release, nil
}

// Result is the outcome of one statement.
type Result struct {
	// Rel holds query output (SELECT / PRISMAlog).
	Rel *value.Relation
	// Rows holds a SELECT's output in Rel's place when the caller gave the
	// statement a buffer to encode into (ExecTo, ExecPreparedTo): the
	// tuples in the wire's encoding, written once, from the plan root's
	// column vectors where it has them.
	Rows *value.EncodedRows
	// Affected counts rows touched by DML.
	Affected int
	// Msg describes DDL and transaction-control outcomes.
	Msg string
	// Plan is the optimized logical plan of a SELECT (debugging aid).
	Plan string
	// SimTime is the simulated response time on the 1988 machine model:
	// the largest per-PE virtual clock advance during the statement.
	SimTime time.Duration
	// WallTime is the host's real execution time.
	WallTime time.Duration
}

// Exec executes one SQL statement. Cacheable statements (SELECT and
// DML) go through the engine's plan cache: the text is normalized with
// its literals lifted out, and a hit skips parsing and optimization
// entirely, executing the cached plan with the literals bound — so even
// unprepared autocommit statements pay the parse/optimize cost once per
// statement shape.
func (s *Session) Exec(sql string) (*Result, error) { return s.ExecTo(nil, sql) }

// ExecTo is Exec for a caller that would only serialize a SELECT's tuples
// (the server): given a non-nil dst, the statement appends them to it in
// the wire's tuple encoding and answers with Result.Rows, whose Bytes
// extend dst, in place of Result.Rel. Every other statement answers as
// through Exec.
func (s *Session) ExecTo(dst []byte, sql string) (*Result, error) {
	start := s.startClock()
	r, err := s.routeText(sql)
	return s.execRouted(start, r, err, dst)
}

// stmtClock is where a statement's timing envelope opens: the host's
// clock and the simulated machine's.
type stmtClock struct {
	wall time.Time
	sim  time.Duration
}

func (s *Session) startClock() stmtClock {
	return stmtClock{wall: time.Now(), sim: s.e.m.MaxClock()}
}

// routed is what a statement comes to before anything runs: a SELECT
// plan with its parameters bound, a compiled write with the arguments for
// its parameters, or any other statement as its AST. Exec, ExecPrepared
// and Stream share the routines that produce it; they differ only in what
// runs a SELECT plan.
type routed struct {
	sel     plan.Node
	planStr string
	write   *write
	args    []value.Value
	ast     sqlparse.Stmt
}

// execRouted runs what routing produced — a SELECT gathered as tuples, or
// encoded onto dst when dst is not nil — and closes the timing envelope:
// the one place WallTime and SimTime are stamped on a Result.
func (s *Session) execRouted(start stmtClock, r routed, err error, dst []byte) (*Result, error) {
	if err != nil {
		return nil, err
	}
	var res *Result
	switch {
	case r.sel != nil:
		res, err = s.runSelectPlanStr(r.sel, r.planStr, dst)
	case r.write != nil:
		var n int
		if n, err = s.e.execWrite(s, r.write, r.args); err == nil {
			res = &Result{Affected: n}
		}
	default:
		res, err = s.execStmt(r.ast)
	}
	if err != nil {
		return nil, err
	}
	res.WallTime = time.Since(start.wall)
	res.SimTime = s.e.m.MaxClock() - start.sim
	return res, nil
}

// routeText routes one statement's text: through the plan cache when its
// shape is cacheable, through the parser otherwise.
func (s *Session) routeText(sql string) (routed, error) {
	pc := s.e.plans
	key, lits, ok := sqlparse.Normalize(sql)
	if !ok {
		return s.routeParsed(sql)
	}
	ps, hit := pc.get(key)
	if !hit {
		// The key is the statement with a '?' where each literal was, so
		// it compiles as Prepare compiles a statement; one that does not
		// parse with a slot per literal is marked non-cacheable, and the
		// parser reports the text's own error below. The grants are
		// checked before compiling, so a tenant learns nothing of a table
		// it may not touch from the compiler's errors.
		st, n, err := sqlparse.ParseStmt(key)
		if err != nil || n != len(lits) {
			pc.put(key, nil)
			return s.routeParsed(sql)
		}
		if err := s.checkStmt(st); err != nil {
			return routed{}, err
		}
		cs, err := s.e.compileParsed(st, n)
		if err != nil {
			return routed{}, err
		}
		ps = newPreparedStmt(s.e, key, true, cs)
		pc.put(key, ps)
	}
	if ps == nil {
		// Statement shape known non-cacheable.
		return s.routeParsed(sql)
	}
	// A parameter-kind mismatch (this statement's literal kind differs
	// from the one the shared plan was typed for, e.g. `id = 1.5` hitting
	// the plan cached for `id = 7`) must not surface as an error the
	// uncached engine would never raise — it falls back to the ordinary
	// path: caching must never change an outcome.
	r, err := s.routePrepared(ps, lits)
	if err != nil && errors.Is(err, errBindKind) {
		return s.routeParsed(sql)
	}
	return r, err
}

// routeParsed is the uncached path: parse, and compile a SELECT or a
// write, its grants checked first.
func (s *Session) routeParsed(sql string) (routed, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return routed{}, err
	}
	switch st.(type) {
	case *sqlparse.Select, *sqlparse.Insert, *sqlparse.Update, *sqlparse.Delete:
	default:
		return routed{ast: st}, nil
	}
	if err := s.checkStmt(st); err != nil {
		return routed{}, err
	}
	cs, err := s.e.compileParsed(st, 0)
	if err != nil {
		return routed{}, err
	}
	return routed{sel: cs.sel, planStr: cs.planStr, write: cs.write}, nil
}

// execStmt runs a parsed statement other than a SELECT or a write
// (routing compiles those: routeParsed, routePrepared).
func (s *Session) execStmt(st sqlparse.Stmt) (*Result, error) {
	if err := s.checkStmt(st); err != nil {
		return nil, err
	}
	switch t := st.(type) {
	case *sqlparse.CreateTable:
		if s.e.IsReadOnly() {
			return nil, s.e.readOnlyErr("CREATE TABLE")
		}
		if err := s.e.createFromAST(t); err != nil {
			return nil, err
		}
		if s.user != nil {
			// The creator owns what it creates.
			if err := s.e.cat.Grant(s.user.Name, t.Name, catalog.PrivAll); err != nil {
				return nil, err
			}
		}
		return &Result{Msg: fmt.Sprintf("table %s created", t.Name)}, nil

	case *sqlparse.DropTable:
		if s.e.IsReadOnly() {
			return nil, s.e.readOnlyErr("DROP TABLE")
		}
		if err := s.e.DropTable(t.Name); err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("table %s dropped", t.Name)}, nil

	case *sqlparse.Explain:
		return s.execExplain(t)

	case *sqlparse.Begin:
		if s.tx != nil {
			return nil, fmt.Errorf("core: transaction already open")
		}
		s.tx = s.e.txns.Begin()
		s.tx.SetLockTimeout(s.stmtTimeout)
		return &Result{Msg: "transaction started"}, nil

	case *sqlparse.Commit:
		if s.tx == nil {
			return nil, fmt.Errorf("core: no open transaction")
		}
		s.closeCursors()
		err := s.tx.Commit()
		s.tx = nil
		if err != nil {
			return nil, err
		}
		return &Result{Msg: "committed"}, nil

	case *sqlparse.Rollback:
		if s.tx == nil {
			return nil, fmt.Errorf("core: no open transaction")
		}
		s.closeCursors()
		s.tx.Abort()
		s.tx = nil
		return &Result{Msg: "rolled back"}, nil

	case *sqlparse.SetTimeout:
		s.SetStatementTimeout(t.Timeout)
		return &Result{Msg: fmt.Sprintf("statement_timeout = %dms", t.Timeout.Milliseconds())}, nil

	case *sqlparse.Promote:
		if err := s.e.Promote(); err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("promoted to primary (epoch %d)", s.e.Epoch())}, nil

	case *sqlparse.CreateUser:
		if err := s.e.cat.CreateUser(t.Name, t.Password, t.Opts); err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("user %s created", strings.ToLower(t.Name))}, nil

	case *sqlparse.DropUser:
		if err := s.e.cat.DropUser(t.Name); err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("user %s dropped", strings.ToLower(t.Name))}, nil

	case *sqlparse.Grant:
		table, user := strings.ToLower(t.Table), strings.ToLower(t.User)
		if t.Revoke {
			if err := s.e.cat.Revoke(t.User, t.Table, t.Priv); err != nil {
				return nil, err
			}
			return &Result{Msg: fmt.Sprintf("revoked %s on %s from %s", t.Priv, table, user)}, nil
		}
		if err := s.e.cat.Grant(t.User, t.Table, t.Priv); err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("granted %s on %s to %s", t.Priv, table, user)}, nil

	case *sqlparse.Show:
		if t.What == "USERS" {
			return s.showUsers(), nil
		}
		return s.showAdmission(), nil
	}
	return nil, fmt.Errorf("core: unhandled statement %T", st)
}

// dryRun is EXPLAIN's account of an optimized plan, the executor's own:
// the plan runs dry — the real operators over empty batches, at a view
// that sees what the statement would (inside a transaction, its pending
// writes) — and every operator records what its slots held.
func (s *Session) dryRun(root plan.Node) (*explainTrace, error) {
	view, release, err := s.readView()
	if err != nil {
		return nil, err
	}
	defer release()
	ctx := s.newExecCtx(view)
	ctx.explain = &explainTrace{}
	if _, err := s.e.execPlan(ctx, root, nil); err != nil {
		return nil, err
	}
	return ctx.explain, nil
}

// execExplain answers EXPLAIN <stmt>: compile the wrapped statement
// exactly as execution would, but return its rendering as a one-column
// relation instead of running it — no fragments are written or scanned
// and no locks are taken, so EXPLAIN is safe against any workload. A
// SELECT's join methods and Exchange partitioning annotations and a
// write's fragments are exactly what execution will do, a trailing access
// line states the concurrency-control discipline the statement runs under
// (snapshot read vs locked write), and a SELECT's dry-run lines say the
// operators run on batches and name those that hand up fewer columns than
// their schema has.
func (s *Session) execExplain(ex *sqlparse.Explain) (*Result, error) {
	cs, err := s.e.compileParsed(ex.Stmt, 0)
	if err != nil {
		return nil, err
	}
	var planStr string
	switch {
	case cs.sel != nil:
		trace, err := s.dryRun(cs.sel)
		if err != nil {
			return nil, err
		}
		planStr = cs.planStr + "access: snapshot read (no locks)\n" + trace.line()
	case cs.write != nil:
		planStr = s.e.explainWrite(cs.write) + "\n" + writeAccessLine
	default:
		return nil, fmt.Errorf("core: EXPLAIN supports SELECT and DML statements, got %T", ex.Stmt)
	}
	rel := value.NewRelation(value.MustSchema("QUERY PLAN", "VARCHAR"))
	for _, line := range strings.Split(strings.TrimRight(planStr, "\n"), "\n") {
		rel.Append(value.NewTuple(value.NewString(line)))
	}
	return &Result{Rel: rel, Plan: planStr}, nil
}

// writeAccessLine is the EXPLAIN access annotation for DML.
const writeAccessLine = "access: locked write (2PL exclusive + first-committer-wins)\n"

// Query is a convenience wrapper returning just the relation.
func (s *Session) Query(sql string) (*value.Relation, error) {
	res, err := s.Exec(sql)
	if err != nil {
		return nil, err
	}
	if res.Rel == nil {
		return nil, fmt.Errorf("core: statement produced no relation")
	}
	return res.Rel, nil
}

// Close aborts any open transaction and settles any cursors still
// open, releasing their snapshot pins so an abandoned stream cannot hold
// back version garbage collection.
func (s *Session) Close() {
	s.closeCursors()
	if s.tx != nil {
		s.tx.Abort()
		s.tx = nil
	}
}

// closeCursors settles every cursor still open. The end of an explicit
// transaction does it too: the transaction's snapshot pin is what keeps
// the column-cache rows a cursor's batches select from being reused, so
// no cursor may read past it.
func (s *Session) closeCursors() {
	s.curMu.Lock()
	open := make([]*Cursor, 0, len(s.cursors))
	for c := range s.cursors {
		open = append(open, c)
	}
	s.curMu.Unlock()
	for _, c := range open {
		c.Close()
	}
}

// registerCursor tracks an open cursor until finish unregisters it.
func (s *Session) registerCursor(c *Cursor) {
	s.curMu.Lock()
	if s.cursors == nil {
		s.cursors = map[*Cursor]struct{}{}
	}
	s.cursors[c] = struct{}{}
	s.curMu.Unlock()
}

func (s *Session) unregisterCursor(c *Cursor) {
	s.curMu.Lock()
	delete(s.cursors, c)
	s.curMu.Unlock()
}
