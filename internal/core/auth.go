package core

// Multi-tenant authorization: sessions may be bound to a catalog user
// (the server does this after authenticating the Hello handshake);
// every statement execution then checks the user's per-table grants.
// Checks run per execution, NOT per plan — compiled plans are shared
// across sessions via the plan cache, and a revocation must bite on
// the very next statement even when the plan is cached.
//
// The administration statements (CREATE USER, DROP USER, GRANT, REVOKE,
// SHOW ADMISSION, SHOW USERS, PROMOTE) are ordinary SQL: sqlparse parses
// them, execStmt runs them, and the same per-statement gate, checkStmt,
// refuses them to a session bound to a tenant that is not an
// administrator.

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/admission"
	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// fpAuthCheck fires inside the per-statement grant check of an
// authenticated session; an injected error rejects the statement with
// the non-retryable authorization error, so E17 can prove a mid-flight
// auth failure neither wedges the connection nor corrupts the ledger.
var fpAuthCheck = fault.Register("auth.check")

// ErrAuth tags authentication and authorization failures. Never
// retryable: the server maps it to wire.ErrCodeAuth.
var ErrAuth = errors.New("core: not authorized")

// ErrMemBudget tags a statement aborted for exceeding its tenant's
// working-memory budget (the spill-to-abort discipline: the engine has
// no disk to spill sorts and join builds to, so a breach aborts the
// statement instead). Not retryable — the same statement would breach
// again.
var ErrMemBudget = errors.New("core: working-memory budget exceeded")

// SetUser binds the session to an authenticated tenant (nil reverts to
// the unrestricted local/administrator mode) and adopts the user's
// working-memory budget.
func (s *Session) SetUser(u *catalog.User) {
	s.user = u
	if u != nil {
		s.memBudget = u.MemBudget
	} else {
		s.memBudget = 0
	}
}

// User returns the tenant the session is bound to (nil for local
// sessions).
func (s *Session) User() *catalog.User { return s.user }

// SetMemBudget overrides the session's per-statement working-memory
// budget in bytes (0 = unlimited).
func (s *Session) SetMemBudget(n int64) { s.memBudget = n }

// tableAccess is one table a statement touches and the privilege it
// needs.
type tableAccess struct {
	table string
	priv  catalog.Priv
}

// stmtAccess lists the grants a statement requires.
func stmtAccess(st sqlparse.Stmt) []tableAccess {
	switch t := st.(type) {
	case *sqlparse.Select:
		out := make([]tableAccess, 0, len(t.From)+len(t.Joins))
		for _, f := range t.From {
			out = append(out, tableAccess{f.Table, catalog.PrivSelect})
		}
		for _, j := range t.Joins {
			out = append(out, tableAccess{j.Table, catalog.PrivSelect})
		}
		return out
	case *sqlparse.Insert:
		return []tableAccess{{t.Table, catalog.PrivInsert}}
	case *sqlparse.Update:
		return []tableAccess{{t.Table, catalog.PrivUpdate}}
	case *sqlparse.Delete:
		return []tableAccess{{t.Table, catalog.PrivDelete}}
	case *sqlparse.DropTable:
		return []tableAccess{{t.Name, catalog.PrivAll}}
	case *sqlparse.Explain:
		return stmtAccess(t.Stmt)
	}
	return nil
}

// checkAccess enforces the session user's grants over the listed
// tables. Unbound sessions pass unconditionally without evaluating the
// fault point.
func (s *Session) checkAccess(access []tableAccess) error {
	if s.user == nil {
		return nil
	}
	if out := fpAuthCheck.Eval(); out != nil && out.Err != nil {
		return fmt.Errorf("%w: %v", ErrAuth, out.Err)
	}
	for _, a := range access {
		if !s.user.Can(a.table, a.priv) {
			return fmt.Errorf("%w: tenant %q lacks %s on table %q",
				ErrAuth, s.user.Name, a.priv, a.table)
		}
	}
	return nil
}

// checkStmt is checkAccess for an AST about to execute, and refuses an
// administration statement to a tenant that is not an administrator.
func (s *Session) checkStmt(st sqlparse.Stmt) error {
	if s.user == nil {
		return nil
	}
	if what := adminStmt(st); what != "" {
		if !s.user.Admin {
			return fmt.Errorf("%w: %s requires an administrator", ErrAuth, what)
		}
		return nil
	}
	return s.checkAccess(stmtAccess(st))
}

// adminStmt names st when it is an administration statement, and is ""
// for every other statement.
func adminStmt(st sqlparse.Stmt) string {
	switch t := st.(type) {
	case *sqlparse.CreateUser:
		return "CREATE USER"
	case *sqlparse.DropUser:
		return "DROP USER"
	case *sqlparse.Grant:
		if t.Revoke {
			return "REVOKE"
		}
		return "GRANT"
	case *sqlparse.Show:
		return "SHOW " + t.What
	case *sqlparse.Promote:
		return "PROMOTE"
	}
	return ""
}

// SetAdmission hands the engine the server's admission controller so
// SHOW ADMISSION can report it. Nil detaches.
func (e *Engine) SetAdmission(c *admission.Controller) {
	e.mu.Lock()
	e.adm = c
	e.mu.Unlock()
}

// Admission returns the attached admission controller (nil when
// admission control is off).
func (e *Engine) Admission() *admission.Controller {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.adm
}

// showAdmission renders the admission controller's counters: one row
// per tenant plus a (global) summary row.
func (s *Session) showAdmission() *Result {
	ctl := s.e.Admission()
	rel := value.NewRelation(value.MustSchema(
		"tenant", "VARCHAR", "in_flight", "INTEGER", "queued", "INTEGER",
		"admitted", "INTEGER", "shed", "INTEGER", "avg_wait_us", "INTEGER"))
	if ctl == nil {
		return &Result{Rel: rel, Msg: "admission control off"}
	}
	st := ctl.Stats()
	var admitted int64
	for _, t := range st.Tenants {
		admitted += t.Admitted
		rel.Append(value.NewTuple(
			value.NewString(t.Tenant), value.NewInt(int64(t.InFlight)), value.NewInt(int64(t.Queued)),
			value.NewInt(t.Admitted), value.NewInt(t.Shed), value.NewInt(t.AvgWait.Microseconds())))
	}
	rel.Append(value.NewTuple(
		value.NewString("(global)"), value.NewInt(int64(st.InFlight)), value.NewInt(int64(st.Queued)),
		value.NewInt(admitted), value.NewInt(st.Shed), value.NewInt(0)))
	return &Result{Rel: rel,
		Msg: fmt.Sprintf("max_in_flight=%d queue_depth=%d", st.MaxInFlight, st.QueueDepth)}
}

// showUsers renders the user table (names and attributes; never
// secrets).
func (s *Session) showUsers() *Result {
	rel := value.NewRelation(value.MustSchema(
		"user", "VARCHAR", "priority", "VARCHAR", "max_concurrent", "INTEGER",
		"mem_budget", "INTEGER", "admin", "INTEGER", "grants", "VARCHAR"))
	for _, name := range s.e.cat.Users() {
		u, err := s.e.cat.GetUser(name)
		if err != nil {
			continue // dropped concurrently
		}
		admin := int64(0)
		if u.Admin {
			admin = 1
		}
		rel.Append(value.NewTuple(
			value.NewString(u.Name), value.NewString(u.Priority),
			value.NewInt(int64(u.MaxConcurrent)), value.NewInt(u.MemBudget),
			value.NewInt(admin), value.NewString(strings.Join(u.Grants(), "; "))))
	}
	return &Result{Rel: rel}
}

// ---------- working-memory accounting ----------

// memAcct tracks one statement's materialized working memory against
// the session's budget. Sticky: once breached, every later charge
// fails too, so partitioned paths that cannot return an error mid-
// gather still abort at the next checkpoint.
type memAcct struct {
	limit int64
	used  int64
	mu    sync.Mutex
	err   error
}

func (m *memAcct) charge(n int64) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	m.used += n
	if m.used > m.limit {
		m.err = fmt.Errorf("%w: statement materialized %d bytes (budget %d)", ErrMemBudget, m.used, m.limit)
		return m.err
	}
	return nil
}

func (m *memAcct) breach() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}
