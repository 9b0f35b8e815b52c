package core

// Multi-tenant authorization: sessions may be bound to a catalog user
// (the server does this after authenticating the Hello handshake);
// every statement execution then checks the user's per-table grants.
// Checks run per execution, NOT per plan — compiled plans are shared
// across sessions via the plan cache, and a revocation must bite on
// the very next statement even when the plan is cached.
//
// The administration statements (CREATE USER, DROP USER, GRANT,
// REVOKE, SHOW ADMISSION) are intercepted before the SQL parser, like
// SET STATEMENT_TIMEOUT and PROMOTE, and are gated to administrators.

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
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

// isAdmin reports whether the session may run administration
// statements: local (unbound) sessions and admin users.
func (s *Session) isAdmin() bool { return s.user == nil || s.user.Admin }

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

// checkStmt is checkAccess for an AST about to execute.
func (s *Session) checkStmt(st sqlparse.Stmt) error {
	if s.user == nil {
		return nil
	}
	return s.checkAccess(stmtAccess(st))
}

// ---------- administration statements ----------

var (
	createUserRe = regexp.MustCompile(`(?i)^\s*CREATE\s+USER\s+([A-Za-z_][A-Za-z0-9_]*)\s+PASSWORD\s+'([^']*)'\s*((?:\s*(?:PRIORITY\s+[A-Za-z]+|MAX_CONCURRENT\s+\d+|MEM_BUDGET\s+\d+|ADMIN))*)\s*;?\s*$`)
	userOptRe    = regexp.MustCompile(`(?i)(PRIORITY\s+([A-Za-z]+)|MAX_CONCURRENT\s+(\d+)|MEM_BUDGET\s+(\d+)|ADMIN)`)
	dropUserRe   = regexp.MustCompile(`(?i)^\s*DROP\s+USER\s+([A-Za-z_][A-Za-z0-9_]*)\s*;?\s*$`)
	grantRe      = regexp.MustCompile(`(?i)^\s*GRANT\s+([A-Za-z,\s]+?)\s+ON\s+([A-Za-z_][A-Za-z0-9_]*)\s+TO\s+([A-Za-z_][A-Za-z0-9_]*)\s*;?\s*$`)
	revokeRe     = regexp.MustCompile(`(?i)^\s*REVOKE\s+([A-Za-z,\s]+?)\s+ON\s+([A-Za-z_][A-Za-z0-9_]*)\s+FROM\s+([A-Za-z_][A-Za-z0-9_]*)\s*;?\s*$`)
	showAdmRe    = regexp.MustCompile(`(?i)^\s*SHOW\s+ADMISSION\s*;?\s*$`)
	showUsersRe  = regexp.MustCompile(`(?i)^\s*SHOW\s+USERS\s*;?\s*$`)
)

// adminCandidate cheaply rules out the overwhelmingly common case (a
// plain SQL statement) before any admin regex runs on the hot path.
func adminCandidate(sql string) bool {
	i := 0
	for i < len(sql) && (sql[i] == ' ' || sql[i] == '\t' || sql[i] == '\n' || sql[i] == '\r') {
		i++
	}
	if i >= len(sql) {
		return false
	}
	switch sql[i] | 0x20 { // ASCII lowercase
	case 'g', 'r', 's': // GRANT, REVOKE, SHOW (REVOKE/ROLLBACK and SELECT/SET miss the regexes)
		return true
	case 'c', 'd': // CREATE USER / DROP USER, not CREATE TABLE / DROP TABLE
		rest := sql[i:]
		if sp := strings.IndexAny(rest, " \t\n\r"); sp > 0 {
			rest = strings.TrimLeft(rest[sp:], " \t\n\r")
			return len(rest) >= 4 && strings.EqualFold(rest[:4], "user")
		}
	}
	return false
}

// execAdmin intercepts the user/grant administration statements;
// handled reports whether sql was one.
func (s *Session) execAdmin(sql string) (*Result, bool, error) {
	if !adminCandidate(sql) {
		return nil, false, nil
	}
	switch {
	case showAdmRe.MatchString(sql):
		res, err := s.gateAdmin("SHOW ADMISSION", s.showAdmission)
		return res, true, err

	case showUsersRe.MatchString(sql):
		res, err := s.gateAdmin("SHOW USERS", s.showUsers)
		return res, true, err

	case createUserRe.MatchString(sql):
		m := createUserRe.FindStringSubmatch(sql)
		res, err := s.gateAdmin("CREATE USER", func() (*Result, error) {
			opts, err := parseUserOpts(m[3])
			if err != nil {
				return nil, err
			}
			if err := s.e.cat.CreateUser(m[1], m[2], opts); err != nil {
				return nil, err
			}
			return &Result{Msg: fmt.Sprintf("user %s created", strings.ToLower(m[1]))}, nil
		})
		return res, true, err

	case dropUserRe.MatchString(sql):
		m := dropUserRe.FindStringSubmatch(sql)
		res, err := s.gateAdmin("DROP USER", func() (*Result, error) {
			if err := s.e.cat.DropUser(m[1]); err != nil {
				return nil, err
			}
			return &Result{Msg: fmt.Sprintf("user %s dropped", strings.ToLower(m[1]))}, nil
		})
		return res, true, err

	case grantRe.MatchString(sql):
		m := grantRe.FindStringSubmatch(sql)
		res, err := s.gateAdmin("GRANT", func() (*Result, error) {
			priv, err := parsePrivList(m[1])
			if err != nil {
				return nil, err
			}
			if err := s.e.cat.Grant(m[3], m[2], priv); err != nil {
				return nil, err
			}
			return &Result{Msg: fmt.Sprintf("granted %s on %s to %s", priv, strings.ToLower(m[2]), strings.ToLower(m[3]))}, nil
		})
		return res, true, err

	case revokeRe.MatchString(sql):
		m := revokeRe.FindStringSubmatch(sql)
		res, err := s.gateAdmin("REVOKE", func() (*Result, error) {
			priv, err := parsePrivList(m[1])
			if err != nil {
				return nil, err
			}
			if err := s.e.cat.Revoke(m[3], m[2], priv); err != nil {
				return nil, err
			}
			return &Result{Msg: fmt.Sprintf("revoked %s on %s from %s", priv, strings.ToLower(m[2]), strings.ToLower(m[3]))}, nil
		})
		return res, true, err
	}
	return nil, false, nil
}

// gateAdmin runs fn only for administrator sessions.
func (s *Session) gateAdmin(what string, fn func() (*Result, error)) (*Result, error) {
	if !s.isAdmin() {
		return nil, fmt.Errorf("%w: %s requires an administrator", ErrAuth, what)
	}
	return fn()
}

// parseUserOpts reads the optional CREATE USER attribute list.
func parseUserOpts(opts string) (catalog.UserOpts, error) {
	var out catalog.UserOpts
	for _, m := range userOptRe.FindAllStringSubmatch(opts, -1) {
		switch {
		case m[2] != "": // PRIORITY
			out.Priority = strings.ToLower(m[2])
		case m[3] != "": // MAX_CONCURRENT
			n, err := strconv.Atoi(m[3])
			if err != nil {
				return out, fmt.Errorf("core: MAX_CONCURRENT %q: %w", m[3], err)
			}
			out.MaxConcurrent = n
		case m[4] != "": // MEM_BUDGET
			n, err := strconv.ParseInt(m[4], 10, 64)
			if err != nil {
				return out, fmt.Errorf("core: MEM_BUDGET %q: %w", m[4], err)
			}
			out.MemBudget = n
		default: // ADMIN
			out.Admin = true
		}
	}
	return out, nil
}

// parsePrivList reads a GRANT/REVOKE privilege list: ALL or a
// comma-separated subset of SELECT, INSERT, UPDATE, DELETE.
func parsePrivList(list string) (catalog.Priv, error) {
	var priv catalog.Priv
	for _, p := range strings.Split(list, ",") {
		switch strings.ToUpper(strings.TrimSpace(p)) {
		case "ALL":
			priv |= catalog.PrivAll
		case "SELECT":
			priv |= catalog.PrivSelect
		case "INSERT":
			priv |= catalog.PrivInsert
		case "UPDATE":
			priv |= catalog.PrivUpdate
		case "DELETE":
			priv |= catalog.PrivDelete
		case "":
		default:
			return 0, fmt.Errorf("core: unknown privilege %q", strings.TrimSpace(p))
		}
	}
	if priv == 0 {
		return 0, fmt.Errorf("core: empty privilege list")
	}
	return priv, nil
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
func (s *Session) showAdmission() (*Result, error) {
	ctl := s.e.Admission()
	rel := value.NewRelation(value.MustSchema(
		"tenant", "VARCHAR", "in_flight", "INTEGER", "queued", "INTEGER",
		"admitted", "INTEGER", "shed", "INTEGER", "avg_wait_us", "INTEGER"))
	if ctl == nil {
		return &Result{Rel: rel, Msg: "admission control off"}, nil
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
		Msg: fmt.Sprintf("max_in_flight=%d queue_depth=%d", st.MaxInFlight, st.QueueDepth)}, nil
}

// showUsers renders the user table (names and attributes; never
// secrets).
func (s *Session) showUsers() (*Result, error) {
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
	return &Result{Rel: rel}, nil
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
