package repl

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/value"
	"repro/internal/wire"
)

// node is one engine+server endpoint in a test deployment.
type node struct {
	eng  *core.Engine
	srv  *server.Server
	src  *Source
	addr string
	done chan error
}

func startNode(t *testing.T, primaryAddr func() string) *node {
	t.Helper()
	eng, err := core.New(core.Config{NumPEs: 8, FaultDomain: &fault.Domain{}})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	src := NewSource(SourceConfig{Engine: eng, PollInterval: 2 * time.Millisecond})
	eng.Txns().SetCommitWait(src.WaitShipped)
	srv, err := server.New(server.Config{Engine: eng, Source: src, PrimaryAddr: primaryAddr})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	n := &node{eng: eng, srv: srv, src: src, addr: l.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		<-n.done
		src.Close()
		eng.Close()
	})
	return n
}

// waitWatermark blocks until the replica's watermark reaches ts.
func waitWatermark(t *testing.T, r *Replica, ts uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.Watermark() < ts {
		if time.Now().After(deadline) {
			t.Fatalf("replica watermark stuck at %d, want >= %d", r.Watermark(), ts)
		}
		time.Sleep(time.Millisecond)
	}
}

func startReplicaNode(t *testing.T, primary *node) (*node, *Replica) {
	t.Helper()
	n := startNode(t, nil)
	// Rebuild the server with the primary address advertised; simpler:
	// the node's server already lacks PrimaryAddr — acceptable for
	// tests that don't assert the advertised address.
	r, err := StartReplica(ReplicaConfig{
		Engine:       n.eng,
		Primary:      primary.addr,
		RetryBackoff: 10 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("replica: %v", err)
	}
	t.Cleanup(r.Stop)
	return n, r
}

func mustExec(t *testing.T, c *client.Client, sql string) {
	t.Helper()
	if _, err := c.Exec(sql); err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
}

func sumBalances(t *testing.T, c *client.Client) int64 {
	t.Helper()
	rel, err := c.Query("SELECT SUM(balance) FROM acct")
	if err != nil {
		t.Fatalf("sum query: %v", err)
	}
	if len(rel.Tuples) != 1 {
		t.Fatalf("sum query returned %d rows", len(rel.Tuples))
	}
	return rel.Tuples[0][0].Int()
}

func TestReplicationStreamsCommits(t *testing.T) {
	primary := startNode(t, nil)
	_, rep := startReplicaNode(t, primary)

	pc, err := client.Dial(primary.addr)
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	defer pc.Close()
	if pc.Role() != wire.RolePrimary {
		t.Fatalf("primary reports role %c", pc.Role())
	}
	mustExec(t, pc, "CREATE TABLE acct (id INT, balance INT, PRIMARY KEY(id)) FRAGMENT BY HASH(id) INTO 4 FRAGMENTS")
	for i := 0; i < 20; i++ {
		mustExec(t, pc, fmt.Sprintf("INSERT INTO acct VALUES (%d, 100)", i))
	}
	w := primary.eng.Txns().Watermark()
	if w == 0 {
		t.Fatalf("primary watermark never advanced")
	}
	waitWatermark(t, rep, w)
}

func TestReplicaServesReadsAndRefusesWrites(t *testing.T) {
	primary := startNode(t, nil)
	repNode, rep := startReplicaNode(t, primary)

	pc, err := client.Dial(primary.addr)
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	defer pc.Close()
	mustExec(t, pc, "CREATE TABLE acct (id INT, balance INT, PRIMARY KEY(id)) FRAGMENT BY HASH(id) INTO 4 FRAGMENTS")
	for i := 0; i < 20; i++ {
		mustExec(t, pc, fmt.Sprintf("INSERT INTO acct VALUES (%d, 100)", i))
	}
	waitWatermark(t, rep, primary.eng.Txns().Watermark())

	rc, err := client.Dial(repNode.addr)
	if err != nil {
		t.Fatalf("dial replica: %v", err)
	}
	defer rc.Close()
	if rc.Role() != wire.RoleReplica {
		t.Fatalf("replica reports role %c", rc.Role())
	}
	if got := sumBalances(t, rc); got != 2000 {
		t.Fatalf("replica sum = %d, want 2000", got)
	}

	// Writes are refused with the coded redirect.
	_, err = rc.Exec("UPDATE acct SET balance = 0 WHERE id = 1")
	if err == nil {
		t.Fatalf("replica accepted a write")
	}
	var se *client.ServerError
	if !asServerError(err, &se) || se.Code != wire.ErrCodeRedirect {
		t.Fatalf("replica write error = %v, want redirect code", err)
	}
	if !se.Retryable() {
		t.Fatalf("redirect should be retryable")
	}

	// The watermark-bounded staleness contract: updates become visible
	// once the watermark passes their commit.
	mustExec(t, pc, "UPDATE acct SET balance = 150 WHERE id = 3")
	waitWatermark(t, rep, primary.eng.Txns().Watermark())
	if got := sumBalances(t, rc); got != 2050 {
		t.Fatalf("replica sum after update = %d, want 2050", got)
	}
}

// TestDDLAfterAttachShipsInStream pins the in-stream catalog path: a
// table created after the replica's catalog handshake must reach it
// through the live stream (catalog re-shipped ahead of the new log's
// bytes), not by breaking the stream and converging on reconnect. The
// prohibitive retry backoff makes the reconnect path useless inside
// the test window, so only the in-stream path can pass.
func TestDDLAfterAttachShipsInStream(t *testing.T) {
	primary := startNode(t, nil)
	repNode := startNode(t, nil)
	rep, err := StartReplica(ReplicaConfig{
		Engine:       repNode.eng,
		Primary:      primary.addr,
		RetryBackoff: 30 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("replica: %v", err)
	}
	t.Cleanup(rep.Stop)

	pc, err := client.Dial(primary.addr)
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	defer pc.Close()
	// Let the subscribe handshake land first, so the CREATE below is
	// genuinely post-attach.
	deadline := time.Now().Add(5 * time.Second)
	for primary.src.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never attached")
		}
		time.Sleep(time.Millisecond)
	}

	mustExec(t, pc, "CREATE TABLE acct (id INT, balance INT, PRIMARY KEY(id)) FRAGMENT BY HASH(id) INTO 4 FRAGMENTS")
	for i := 0; i < 10; i++ {
		mustExec(t, pc, fmt.Sprintf("INSERT INTO acct VALUES (%d, 100)", i))
	}
	waitWatermark(t, rep, primary.eng.Txns().Watermark())

	rc, err := client.Dial(repNode.addr)
	if err != nil {
		t.Fatalf("dial replica: %v", err)
	}
	defer rc.Close()
	if got := sumBalances(t, rc); got != 1000 {
		t.Fatalf("replica sum = %d, want 1000", got)
	}
}

func asServerError(err error, out **client.ServerError) bool {
	se, ok := err.(*client.ServerError)
	if !ok {
		return false
	}
	*out = se
	return true
}

func TestTornStreamResubscribe(t *testing.T) {
	primary := startNode(t, nil)
	repNode, rep := startReplicaNode(t, primary)

	pc, err := client.Dial(primary.addr)
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	defer pc.Close()
	mustExec(t, pc, "CREATE TABLE acct (id INT, balance INT, PRIMARY KEY(id)) FRAGMENT BY HASH(id) INTO 4 FRAGMENTS")
	for i := 0; i < 10; i++ {
		mustExec(t, pc, fmt.Sprintf("INSERT INTO acct VALUES (%d, 100)", i))
	}
	waitWatermark(t, rep, primary.eng.Txns().Watermark())

	// Crash the replica mid-stream: the connection drops, volatile
	// state vanishes, and it replays from its own durable logs.
	if err := rep.CrashRecover(); err != nil {
		t.Fatalf("crash-recover: %v", err)
	}

	// More commits while the replica reconnects: the resubscribe must
	// resume from the durable offsets and re-apply idempotently.
	for i := 10; i < 20; i++ {
		mustExec(t, pc, fmt.Sprintf("INSERT INTO acct VALUES (%d, 100)", i))
	}
	waitWatermark(t, rep, primary.eng.Txns().Watermark())

	rc, err := client.Dial(repNode.addr)
	if err != nil {
		t.Fatalf("dial replica: %v", err)
	}
	defer rc.Close()
	if got := sumBalances(t, rc); got != 2000 {
		t.Fatalf("replica sum after torn stream = %d, want 2000 (duplicate or lost apply)", got)
	}
}

func TestPromoteFencesStalePrimary(t *testing.T) {
	primary := startNode(t, nil)
	repNode, rep := startReplicaNode(t, primary)

	pc, err := client.Dial(primary.addr)
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	defer pc.Close()
	mustExec(t, pc, "CREATE TABLE acct (id INT, balance INT, PRIMARY KEY(id)) FRAGMENT BY HASH(id) INTO 4 FRAGMENTS")
	for i := 0; i < 10; i++ {
		mustExec(t, pc, fmt.Sprintf("INSERT INTO acct VALUES (%d, 100)", i))
	}
	waitWatermark(t, rep, primary.eng.Txns().Watermark())

	// Promote via the admin statement on the replica's own endpoint.
	rc, err := client.Dial(repNode.addr)
	if err != nil {
		t.Fatalf("dial replica: %v", err)
	}
	defer rc.Close()
	res, err := rc.Exec("PROMOTE")
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if !strings.Contains(res.Msg, "epoch 2") {
		t.Fatalf("promote message = %q, want epoch 2", res.Msg)
	}
	if repNode.eng.IsReadOnly() {
		t.Fatalf("promoted engine still read-only")
	}

	// The promoted node accepts writes on a fresh connection (the old
	// one learned its role at handshake; a real client re-probes).
	rc2, err := client.Dial(repNode.addr)
	if err != nil {
		t.Fatalf("redial promoted: %v", err)
	}
	defer rc2.Close()
	if rc2.Role() != wire.RolePrimary {
		t.Fatalf("promoted node reports role %c", rc2.Role())
	}
	mustExec(t, rc2, "INSERT INTO acct VALUES (100, 55)")
	if got := sumBalances(t, rc2); got != 1055 {
		t.Fatalf("promoted sum = %d, want 1055", got)
	}

	// The fencing: resubscribing to the promoted node with a stale
	// epoch is what the old primary's replicas would do — but the old
	// PRIMARY trying to serve the promoted node is refused. Simulate
	// the stale primary shipping to the promoted node by subscribing
	// the promoted node back to the old primary: its higher epoch must
	// refuse the old primary's stream.
	refusedBefore := rep.StaleEpochRefusals()
	r2, err := StartReplica(ReplicaConfig{
		Engine:       repNode.eng,
		Primary:      primary.addr,
		RetryBackoff: 5 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("resubscribe: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for r2.StaleEpochRefusals() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r2.Stop()
	repNode.eng.SetReadOnly(false) // StartReplica flipped it; restore
	if r2.StaleEpochRefusals() == 0 {
		t.Fatalf("promoted node never refused the stale primary (refusals before: %d)", refusedBefore)
	}
	// The stale primary's data must not have leaked in: the promoted
	// node's row 100 write is its own, sum unchanged.
	if got := sumBalances(t, rc2); got != 1055 {
		t.Fatalf("sum after fencing = %d, want 1055", got)
	}
}

// subscribeRaw performs a handshake with the given credentials on a
// fresh connection and sends ReplSubscribe, returning the connection and
// the first frame the primary answers the subscription with.
func subscribeRaw(t *testing.T, addr, tenant, secret string) (net.Conn, byte, []byte) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(conn, wire.TypeHello, wire.EncodeHello(tenant, secret)); err != nil {
		t.Fatal(err)
	}
	if typ, payload, err := wire.ReadFrame(conn, 0); err != nil || typ != wire.TypeHelloOK {
		t.Fatalf("handshake as %q: %#x %q %v", tenant, typ, payload, err)
	}
	if err := wire.WriteFrame(conn, wire.TypeReplSubscribe, wire.EncodeReplSubscribe(&wire.ReplSubscribe{})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("subscribe as %q: %v", tenant, err)
	}
	return conn, typ, payload
}

// TestReplSubscribeRequiresAdmin: the replication stream carries every
// table's catalog and log records, grants notwithstanding, so once users
// exist only an administrator may subscribe.
func TestReplSubscribeRequiresAdmin(t *testing.T) {
	primary := startNode(t, nil)
	pc, err := client.Dial(primary.addr)
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	defer pc.Close()
	mustExec(t, pc, "CREATE TABLE secret (id INT, note VARCHAR, PRIMARY KEY(id)) FRAGMENT BY HASH(id) INTO 2 FRAGMENTS")
	mustExec(t, pc, "INSERT INTO secret VALUES (1, 'launch codes')")
	mustExec(t, pc, "CREATE USER root PASSWORD 'pw' ADMIN")
	// The connection opened before any user now runs nothing; the
	// administrator makes the tenant.
	rc, err := client.Dial(primary.addr, client.Options{Tenant: "root", Secret: "pw"})
	if err != nil {
		t.Fatalf("dial primary as root: %v", err)
	}
	defer rc.Close()
	mustExec(t, rc, "CREATE USER acme PASSWORD 's3cret'")

	conn, typ, payload := subscribeRaw(t, primary.addr, "acme", "s3cret")
	code, msg, err := wire.DecodeError(payload)
	if typ != wire.TypeError || err != nil || code != wire.ErrCodeAuth {
		t.Fatalf("non-admin subscribe answered %#x %q", typ, payload)
	}
	if !strings.Contains(msg, "administrator") {
		t.Fatalf("refusal = %q", msg)
	}
	if _, _, err := wire.ReadFrame(conn, 0); err == nil {
		t.Fatal("connection still open after the refused subscribe")
	}

	_, typ, payload = subscribeRaw(t, primary.addr, "root", "pw")
	if typ != wire.TypeReplStatus {
		t.Fatalf("admin subscribe answered %#x %q", typ, payload)
	}
	st, err := wire.DecodeReplStatus(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tables) != 1 || st.Tables[0].Name != "secret" {
		t.Fatalf("admin stream catalog = %+v, want table secret", st.Tables)
	}
}

// explain returns the plan EXPLAIN prints for q on c, one line a row.
func explain(t *testing.T, c *client.Client, q string) string {
	t.Helper()
	rel, err := c.Query("EXPLAIN " + q)
	if err != nil {
		t.Fatalf("explain %q: %v", q, err)
	}
	var b strings.Builder
	for _, row := range rel.Tuples {
		b.WriteString(row[0].Str())
		b.WriteByte('\n')
	}
	return b.String()
}

// countStar returns SELECT COUNT(*) FROM table as c answers it.
func countStar(t *testing.T, c *client.Client, table string) int {
	t.Helper()
	rel, err := c.Query("SELECT COUNT(*) FROM " + table)
	if err != nil {
		t.Fatalf("count %s: %v", table, err)
	}
	return int(rel.Tuples[0][0].Int())
}

// TestReplicaPlansFromItsOwnCounts: a replica refills its stores from
// the primary's checkpoint images, through which no row of a bulk load
// passes as a commit. Its optimizer must still see the table sizes its
// fragments hold, after the attach and after a crash replay, and so plan
// a query as the primary does.
func TestReplicaPlansFromItsOwnCounts(t *testing.T) {
	primary := startNode(t, nil)
	pc, err := client.Dial(primary.addr)
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	defer pc.Close()
	mustExec(t, pc, "CREATE TABLE fact (id INT, d INT, PRIMARY KEY(id)) FRAGMENT BY HASH(id) INTO 4 FRAGMENTS")
	mustExec(t, pc, "CREATE TABLE dim (d INT, name VARCHAR, PRIMARY KEY(d)) FRAGMENT BY HASH(d) INTO 2 FRAGMENTS")
	const factRows, dimRows = 20000, 50
	facts := make([]value.Tuple, factRows)
	for i := range facts {
		facts[i] = value.Ints(int64(i), int64(i%dimRows))
	}
	if err := primary.eng.LoadTable("fact", facts); err != nil {
		t.Fatalf("load fact: %v", err)
	}
	for d := 0; d < dimRows; d++ {
		mustExec(t, pc, fmt.Sprintf("INSERT INTO dim VALUES (%d, 'n%d')", d, d%7))
	}

	repNode, rep := startReplicaNode(t, primary)
	waitWatermark(t, rep, primary.eng.Txns().Watermark())
	rc, err := client.Dial(repNode.addr)
	if err != nil {
		t.Fatalf("dial replica: %v", err)
	}
	defer rc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for countStar(t, rc, "fact") != factRows {
		if time.Now().After(deadline) {
			t.Fatalf("replica fact holds %d rows, want %d", countStar(t, rc, "fact"), factRows)
		}
		time.Sleep(time.Millisecond)
	}

	const q = "SELECT dim.name, COUNT(*) FROM fact JOIN dim ON fact.d = dim.d GROUP BY dim.name"
	if want, got := explain(t, pc, q), explain(t, rc, q); got != want {
		t.Errorf("replica plans\n%s\nthe primary plans\n%s", got, want)
	}
	sameRows := func(when string) {
		t.Helper()
		for _, table := range []string{"fact", "dim"} {
			def, err := repNode.eng.Catalog().Get(table)
			if err != nil {
				t.Fatal(err)
			}
			if rows, count := def.Rows(), countStar(t, rc, table); rows != count {
				t.Errorf("%s: replica catalog says %s holds %d rows, its COUNT(*) reads %d", when, table, rows, count)
			}
		}
	}
	sameRows("after the attach")

	if err := rep.CrashRecover(); err != nil {
		t.Fatalf("crash-recover: %v", err)
	}
	sameRows("after the crash replay")
}
