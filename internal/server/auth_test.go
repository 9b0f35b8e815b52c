package server

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/wire"
)

// authEngine builds an engine with an emp table, a tenant "acme"
// (secret "s3cret") granted SELECT on it, and returns the engine plus a
// local admin session for mid-test grant surgery.
func authEngine(t *testing.T) (*core.Engine, *core.Session) {
	t.Helper()
	eng, err := core.New(core.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	admin := eng.NewSession()
	t.Cleanup(admin.Close)
	for _, sql := range []string{
		`CREATE TABLE emp (id INT, dept VARCHAR, salary INT, PRIMARY KEY (id))
			FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`,
		`INSERT INTO emp VALUES (1, 'eng', 100), (2, 'ops', 80), (3, 'eng', 120)`,
		`CREATE USER acme PASSWORD 's3cret'`,
		`GRANT SELECT ON emp TO acme`,
	} {
		if _, err := admin.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return eng, admin
}

// wantAuthErr asserts err is the coded, non-retryable auth error.
func wantAuthErr(t *testing.T, err error, what string) {
	t.Helper()
	var se *client.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("%s err = %v, want *client.ServerError", what, err)
	}
	if se.Code != wire.ErrCodeAuth {
		t.Fatalf("%s code = 0x%02x, want ErrCodeAuth", what, se.Code)
	}
	if se.Retryable() || client.IsRetryable(err) {
		t.Fatalf("%s classified retryable; auth failures must not be", what)
	}
}

// TestUnboundConnectionRefusedOnceUsersExist: a connection opened while no
// user exists is bound to nobody, and the first CREATE USER takes its
// rights away; it must not stay an administrator that can mint others.
func TestUnboundConnectionRefusedOnceUsersExist(t *testing.T) {
	eng, err := core.New(core.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	addr := startServer(t, Config{Engine: eng})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{
		`CREATE TABLE emp (id INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 2 FRAGMENTS`,
		`CREATE USER a PASSWORD 'pw' ADMIN`,
	} {
		if _, err := c.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	_, err = c.Query(`SELECT id FROM emp`)
	wantAuthErr(t, err, "SELECT on the connection opened before any user")
	_, err = c.Exec(`CREATE USER evil PASSWORD 'x' ADMIN`)
	wantAuthErr(t, err, "CREATE USER on the connection opened before any user")
	_, err = c.Prepare(`SELECT id FROM emp WHERE id = ?`)
	wantAuthErr(t, err, "Prepare on the connection opened before any user")
	if _, err := eng.Catalog().GetUser("evil"); err == nil {
		t.Fatal("the unbound connection created an administrator")
	}
	// The administrator it did create logs in and runs as usual.
	admin, err := client.Dial(addr, client.Options{Tenant: "a", Secret: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if _, err := admin.Query(`SELECT id FROM emp`); err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeAuth(t *testing.T) {
	eng, _ := authEngine(t)
	addr := startServer(t, Config{Engine: eng})

	// A Hello with no tenant is refused once users exist.
	_, err := client.Dial(addr)
	wantAuthErr(t, err, "credential-less dial")

	// Wrong secret and unknown tenant are refused at handshake.
	_, err = client.Dial(addr, client.Options{Tenant: "acme", Secret: "wrong"})
	wantAuthErr(t, err, "bad-secret dial")
	_, err = client.Dial(addr, client.Options{Tenant: "nobody", Secret: "s3cret"})
	wantAuthErr(t, err, "unknown-tenant dial")

	// Good credentials bind the session to the tenant's grants.
	c, err := client.Dial(addr, client.Options{Tenant: "acme", Secret: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rel, err := c.Query(`SELECT id FROM emp WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("rows = %d", rel.Len())
	}
	// The grant covers SELECT only; a write is refused in-session
	// without breaking the connection.
	_, err = c.Exec(`INSERT INTO emp VALUES (9, 'hr', 1)`)
	wantAuthErr(t, err, "ungranted INSERT")
	if _, err := c.Query(`SELECT id FROM emp WHERE id = 2`); err != nil {
		t.Fatalf("connection unusable after auth refusal: %v", err)
	}
}

func TestCredentialsIgnoredWithoutUsers(t *testing.T) {
	// A server whose catalog holds no users serves Hellos with and
	// without a tenant alike — auth is opt-in via CREATE USER.
	addr := startServer(t, Config{})
	c, err := client.Dial(addr, client.Options{Tenant: "ghost", Secret: "whatever"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE t (k INT, PRIMARY KEY (k))`); err != nil {
		t.Fatal(err)
	}
}

func TestRevokedGrantMidSession(t *testing.T) {
	eng, admin := authEngine(t)
	addr := startServer(t, Config{Engine: eng})
	c, err := client.Dial(addr, client.Options{Tenant: "acme", Secret: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const q = `SELECT id FROM emp WHERE id = 1`
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	// Revocation bites the very next statement on the live session —
	// the shared plan cache must not shield it.
	if _, err := admin.Exec(`REVOKE SELECT ON emp FROM acme`); err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(q)
	wantAuthErr(t, err, "revoked SELECT")
	// Re-granting restores service on the same connection.
	if _, err := admin.Exec(`GRANT SELECT ON emp TO acme`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(q); err != nil {
		t.Fatalf("query after re-grant: %v", err)
	}
}

// TestPreparedReplanStaysAuthorized pins the prepared-statement path:
// after a revoke plus a DDL that invalidates the cached plan, the
// transparent replan must not resurrect access to the table.
func TestPreparedReplanStaysAuthorized(t *testing.T) {
	eng, admin := authEngine(t)
	addr := startServer(t, Config{Engine: eng})
	c, err := client.Dial(addr, client.Options{Tenant: "acme", Secret: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.Prepare(`SELECT id FROM emp WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Query(int64(1)); err != nil {
		t.Fatal(err)
	}
	// Revoke, then bump the catalog version so the next execution
	// replans instead of reusing the compiled form.
	for _, sql := range []string{
		`REVOKE SELECT ON emp FROM acme`,
		`CREATE TABLE unrelated (k INT, PRIMARY KEY (k))`,
	} {
		if _, err := admin.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	_, err = st.Query(int64(1))
	wantAuthErr(t, err, "replanned prepared SELECT")
}

// TestAdmissionOverTCP drives the statement admission queue through the
// wire: a held slot queues one statement (surfacing its wait in the
// Result timings) and sheds the next with the coded retryable overload
// error, leaving the connection open.
func TestAdmissionOverTCP(t *testing.T) {
	eng, err := core.New(core.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	local := eng.NewSession()
	if _, err := local.Exec(`CREATE TABLE t (k INT, PRIMARY KEY (k))`); err != nil {
		t.Fatal(err)
	}
	local.Close()

	adm := admission.New(admission.Config{MaxInFlight: 1, QueueDepth: 4, WaitTimeout: 60 * time.Millisecond})
	addr := startServer(t, Config{Engine: eng, Admission: adm})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Occupy the only slot from the test, then release it shortly: the
	// client's statement queues and its Result reports the wait.
	g, err := adm.Acquire("holder", admission.ClassInteractive, 0)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(15 * time.Millisecond)
		g.Release()
	}()
	res, err := c.Exec(`SELECT k FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueTime <= 0 {
		t.Fatalf("queued statement QueueTime = %v, want > 0", res.QueueTime)
	}

	// Hold the slot past the wait timeout: the statement is shed with
	// the retryable overload code and the connection survives.
	g2, err := adm.Acquire("holder", admission.ClassInteractive, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Exec(`SELECT k FROM t`)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.ErrCodeOverloaded {
		t.Fatalf("shed err = %v, want coded ErrCodeOverloaded", err)
	}
	if !client.IsRetryable(err) {
		t.Fatalf("shed statement must be retryable: %v", err)
	}
	g2.Release()
	if _, err := c.Exec(`SELECT k FROM t`); err != nil {
		t.Fatalf("connection unusable after shed: %v", err)
	}
	if st := adm.Stats(); st.Shed == 0 {
		t.Errorf("controller recorded no sheds")
	}
}

// TestAdminStatementsPrepareOverWire: an administration statement can be
// prepared over the wire like any other, executing it answers as Exec
// does, and the administrator gate applies when it runs.
func TestAdminStatementsPrepareOverWire(t *testing.T) {
	eng, admin := authEngine(t)
	for _, sql := range []string{
		`CREATE USER root PASSWORD 'pw' ADMIN`,
		`CREATE USER alice PASSWORD 'pw'`,
	} {
		if _, err := admin.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	addr := startServer(t, Config{Engine: eng})
	root, err := client.Dial(addr, client.Options{Tenant: "root", Secret: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	describe := func(res *wire.Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		out := fmt.Sprintf("affected=%d msg=%q", res.Affected, res.Msg)
		if res.Rel != nil {
			out += " rel=" + res.Rel.String()
		}
		return out
	}
	for _, sql := range []string{
		`GRANT SELECT ON emp TO alice`,
		`SHOW USERS`,
		`REVOKE SELECT ON emp FROM alice`,
	} {
		st, err := root.Prepare(sql)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", sql, err)
		}
		got := describe(st.Exec())
		if want := describe(root.Exec(sql)); got != want {
			t.Errorf("%s\n prepared: %s\n     Exec: %s", sql, got, want)
		}
	}

	acme, err := client.Dial(addr, client.Options{Tenant: "acme", Secret: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	defer acme.Close()
	st, err := acme.Prepare(`GRANT ALL ON emp TO acme`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Exec()
	wantAuthErr(t, err, "prepared GRANT by a non-administrator")
}
