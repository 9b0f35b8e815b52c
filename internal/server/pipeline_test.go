package server

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/wire"
)

// Pipeline conformance: multiple statements in flight on one
// connection, replies strictly ordered, statement errors isolated, and
// disconnect mid-pipeline leaving no locks behind.

// startAcctServer brings up a server over its own engine with a loaded
// acct table and returns the address plus the engine for inspection.
func startAcctServer(t *testing.T, cfg Config) (string, *core.Engine) {
	t.Helper()
	eng, err := core.New(core.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	cfg.Engine = eng
	addr := startServer(t, cfg)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExec(t, c, `CREATE TABLE acct (id INT, balance INT, PRIMARY KEY (id))
		FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`)
	for i := 0; i < 32; i += 8 {
		mustExec(t, c, fmt.Sprintf(`INSERT INTO acct VALUES (%d, 100), (%d, 100), (%d, 100), (%d, 100),
			(%d, 100), (%d, 100), (%d, 100), (%d, 100)`,
			i, i+1, i+2, i+3, i+4, i+5, i+6, i+7))
	}
	return addr, eng
}

// TestPipelinedOrderingDepth64 writes 64 Exec frames without reading a
// single reply, then collects all 64: replies must arrive in statement
// order, each carrying the right row.
func TestPipelinedOrderingDepth64(t *testing.T) {
	addr, _ := startAcctServer(t, Config{})
	conn := rawDial(t, addr)
	handshake(t, conn)
	const depth = 64
	for i := 0; i < depth; i++ {
		sql := fmt.Sprintf(`SELECT id FROM acct WHERE id = %d`, i%32)
		if err := wire.WriteFrame(conn, wire.TypeExec, []byte(sql)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < depth; i++ {
		typ, payload, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if typ != wire.TypeResult {
			t.Fatalf("reply %d: type %#x (%s)", i, typ, payload)
		}
		res, err := wire.DecodeResult(payload)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if res.Rel == nil || res.Rel.Len() != 1 {
			t.Fatalf("reply %d: unexpected relation %v", i, res.Rel)
		}
		if got := res.Rel.Tuples[0][0].Int(); got != int64(i%32) {
			t.Fatalf("reply %d carries id %d, want %d — replies out of order", i, got, i%32)
		}
	}
}

// TestPipelineBackpressure pushes far more statements than the queue
// depth; the reader must park instead of dropping or reordering.
func TestPipelineBackpressure(t *testing.T) {
	addr, _ := startAcctServer(t, Config{PipelineDepth: 2})
	conn := rawDial(t, addr)
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	handshake(t, conn)
	const n = 100
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			sql := fmt.Sprintf(`SELECT id FROM acct WHERE id = %d`, i%32)
			if err := wire.WriteFrame(conn, wire.TypeExec, []byte(sql)); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		typ, payload, err := wire.ReadFrame(conn, 0)
		if err != nil || typ != wire.TypeResult {
			t.Fatalf("reply %d: typ=%#x err=%v", i, typ, err)
		}
		res, err := wire.DecodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rel.Tuples[0][0].Int(); got != int64(i%32) {
			t.Fatalf("reply %d carries id %d, want %d", i, got, i%32)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

// TestHugePipelineWindowNoDeadlock pins the client's concurrent
// write/read exchange: a window large enough to overflow the kernel
// socket buffers on both sides must complete instead of deadlocking
// (server blocked writing replies nobody reads, client blocked
// writing frames nobody reads).
func TestHugePipelineWindowNoDeadlock(t *testing.T) {
	addr, _ := startAcctServer(t, Config{PipelineDepth: 4})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 4000
	p := c.Pipeline()
	for i := 0; i < n; i++ {
		p.Exec(fmt.Sprintf(`SELECT id FROM acct WHERE id = %d`, i%32))
	}
	done := make(chan struct{})
	var results []client.PipeResult
	go func() {
		defer close(done)
		results, err = p.Run()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("huge pipelined window deadlocked")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("results = %d, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("statement %d: %v", i, r.Err)
		}
		if got := r.Res.Rel.Tuples[0][0].Int(); got != int64(i%32) {
			t.Fatalf("reply %d carries id %d, want %d", i, got, i%32)
		}
	}
}

// TestPipelineErrorKeepsRestUsable: an error mid-pipeline answers that
// statement with Error and the remaining pipelined statements (and the
// connection) still work.
func TestPipelineErrorKeepsRestUsable(t *testing.T) {
	addr, _ := startAcctServer(t, Config{})
	conn := rawDial(t, addr)
	handshake(t, conn)
	stmts := []string{
		`SELECT id FROM acct WHERE id = 1`,
		`SELECT nope FROM missing_table`,
		`SELECT id FROM acct WHERE id = 2`,
	}
	for _, sql := range stmts {
		if err := wire.WriteFrame(conn, wire.TypeExec, []byte(sql)); err != nil {
			t.Fatal(err)
		}
	}
	wantTypes := []byte{wire.TypeResult, wire.TypeError, wire.TypeResult}
	for i, want := range wantTypes {
		typ, payload, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if typ != want {
			t.Fatalf("reply %d: type %#x (%q), want %#x", i, typ, payload, want)
		}
	}
	// Connection still serves statements after the mid-pipeline error.
	if err := wire.WriteFrame(conn, wire.TypeExec, []byte(`SELECT id FROM acct WHERE id = 3`)); err != nil {
		t.Fatal(err)
	}
	typ, _, err := wire.ReadFrame(conn, 0)
	if err != nil || typ != wire.TypeResult {
		t.Fatalf("post-error statement: typ=%#x err=%v", typ, err)
	}
}

// TestPipelinedExecStream interleaves a streamed SELECT with plain
// Exec frames in one pipelined burst; the stream's frames arrive
// first and complete, then the following statement's Result.
func TestPipelinedExecStream(t *testing.T) {
	addr, _ := startAcctServer(t, Config{})
	conn := rawDial(t, addr)
	handshake(t, conn)
	if err := wire.WriteFrame(conn, wire.TypeExecStream,
		wire.EncodeExecStream(8, 0, `SELECT id FROM acct`)); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.TypeExec, []byte(`SELECT id FROM acct WHERE id = 5`)); err != nil {
		t.Fatal(err)
	}
	// Drain the stream: head, chunks, end.
	typ, payload, err := wire.ReadFrame(conn, 0)
	if err != nil || typ != wire.TypeResultHead {
		t.Fatalf("stream head: typ=%#x err=%v", typ, err)
	}
	head, err := wire.DecodeResultHead(payload)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		typ, payload, err = wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		if typ == wire.TypeResultEnd {
			break
		}
		if typ != wire.TypeRowChunk {
			t.Fatalf("mid-stream frame %#x", typ)
		}
		tuples, err := wire.DecodeRowChunk(payload, head.Schema)
		if err != nil {
			t.Fatal(err)
		}
		rows += len(tuples)
	}
	if rows != 32 {
		t.Fatalf("streamed %d rows, want 32", rows)
	}
	typ, _, err = wire.ReadFrame(conn, 0)
	if err != nil || typ != wire.TypeResult {
		t.Fatalf("pipelined statement after stream: typ=%#x err=%v", typ, err)
	}
}

// TestClientPipelineAndBatch drives the client's Pipeline: mixed
// success and error, reuse after Run, and a batch of prepared-statement
// executions.
func TestClientPipelineAndBatch(t *testing.T) {
	addr, _ := startAcctServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p := c.Pipeline()
	p.Exec(`UPDATE acct SET balance = balance + 1 WHERE id = 1`)
	p.Exec(`SELECT garbage FROM nowhere`)
	p.Exec(`SELECT balance FROM acct WHERE id = 1`)
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	results, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err != nil || results[0].Res.Affected != 1 {
		t.Fatalf("update result = %+v", results[0])
	}
	if results[1].Err == nil {
		t.Fatal("bad statement did not error")
	}
	if results[2].Err != nil || results[2].Res.Rel.Tuples[0][0].Int() != 101 {
		t.Fatalf("select result = %+v", results[2])
	}
	// The pipeline is reusable after Run.
	p.Exec(`SELECT balance FROM acct WHERE id = 2`)
	if results, err = p.Run(); err != nil || len(results) != 1 || results[0].Err != nil {
		t.Fatalf("reused pipeline: %v %+v", err, results)
	}

	// A prepared statement queued once per argument set, one write.
	st, err := c.Prepare(`UPDATE acct SET balance = balance + ? WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		p.ExecPrepared(st, 1, i%8)
	}
	bres, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range bres {
		if r.Err != nil || r.Res.Affected != 1 {
			t.Fatalf("prepared result %d = %+v", i, r)
		}
	}
	rel, err := c.Query(`SELECT balance FROM acct WHERE id = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0][0].Int() != 102 {
		t.Fatalf("balance after prepared pipeline = %d, want 102", rel.Tuples[0][0].Int())
	}
}

// runPipeline ships sqls in one client Pipeline.
func runPipeline(c *client.Client, sqls ...string) ([]client.PipeResult, error) {
	p := c.Pipeline()
	for _, sql := range sqls {
		p.Exec(sql)
	}
	return p.Run()
}

// TestPipelineExplicitTxnSemantics pins the documented mid-pipeline
// transaction behavior: a statement error does not roll back the open
// transaction; its other statements commit.
func TestPipelineExplicitTxnSemantics(t *testing.T) {
	addr, _ := startAcctServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results, err := runPipeline(c,
		`BEGIN`,
		`UPDATE acct SET balance = balance + 5 WHERE id = 10`,
		`SELECT broken FROM nowhere`,
		`UPDATE acct SET balance = balance + 5 WHERE id = 11`,
		`COMMIT`,
	)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, false, true, false, false} {
		if got := results[i].Err != nil; got != want {
			t.Fatalf("statement %d error = %v (%v), want %v", i, got, results[i].Err, want)
		}
	}
	checkBalance(t, c, 10, 105)
	checkBalance(t, c, 11, 105)
}

// TestPipelineDeadlockVictim: two pipelined transactions deadlock; the
// victim's later statements answer "aborted" until its pipelined
// ROLLBACK, and both connections stay usable.
func TestPipelineDeadlockVictim(t *testing.T) {
	addr, _ := startAcctServer(t, Config{})
	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Single-fragment tables make the lock footprint deterministic.
	mustExec(t, c1, `CREATE TABLE ta (id INT, v INT)`)
	mustExec(t, c1, `CREATE TABLE tb (id INT, v INT)`)
	mustExec(t, c1, `INSERT INTO ta VALUES (1, 0)`)
	mustExec(t, c1, `INSERT INTO tb VALUES (1, 0)`)

	mustExec(t, c1, `BEGIN`)
	mustExec(t, c2, `BEGIN`)
	mustExec(t, c1, `UPDATE ta SET v = 1`)
	mustExec(t, c2, `UPDATE tb SET v = 1`)

	// Cross updates: c1 wants tb (held by c2), c2 wants ta (held by
	// c1) — a two-session cycle; exactly one side is the victim.
	type outcome struct {
		results []client.PipeResult
		err     error
	}
	o1 := make(chan outcome, 1)
	go func() {
		r, err := runPipeline(c1, `UPDATE tb SET v = 2`, `SELECT v FROM ta`, `ROLLBACK`)
		o1 <- outcome{r, err}
	}()
	r2, err2 := runPipeline(c2, `UPDATE ta SET v = 2`, `SELECT v FROM tb`, `ROLLBACK`)
	r1 := <-o1
	if r1.err != nil || err2 != nil {
		t.Fatalf("transport errors: %v / %v", r1.err, err2)
	}
	victim, survivor := r1.results, r2
	if victim[0].Err == nil {
		victim, survivor = r2, r1.results
	}
	if victim[0].Err == nil || !strings.Contains(victim[0].Err.Error(), "deadlock") {
		t.Fatalf("victim's update error = %v, want deadlock", victim[0].Err)
	}
	// After the abort, the victim's next statement fails until ROLLBACK.
	if victim[1].Err == nil || !strings.Contains(victim[1].Err.Error(), "aborted") {
		t.Fatalf("victim's post-abort statement error = %v, want aborted", victim[1].Err)
	}
	if victim[2].Err != nil {
		t.Fatalf("victim's ROLLBACK failed: %v", victim[2].Err)
	}
	for i, r := range survivor {
		if r.Err != nil {
			t.Fatalf("survivor statement %d failed: %v", i, r.Err)
		}
	}
	// Both connections are alive and lock-free.
	mustExec(t, c1, `UPDATE ta SET v = 9`)
	mustExec(t, c2, `UPDATE tb SET v = 9`)
}

// TestDisconnectMidPipelineReleasesLocks: a client that vanishes with
// a transaction open and statements queued must leave no locks or
// active transactions behind.
func TestDisconnectMidPipelineReleasesLocks(t *testing.T) {
	addr, eng := startAcctServer(t, Config{})
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	handshake(t, conn)
	if err := wire.WriteFrame(conn, wire.TypeExec, []byte(`BEGIN`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		sql := fmt.Sprintf(`UPDATE acct SET balance = balance + 1 WHERE id = %d`, i)
		if err := wire.WriteFrame(conn, wire.TypeExec, []byte(sql)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for BEGIN's reply so the transaction is definitely open,
	// then vanish with the rest of the pipeline in flight.
	if typ, _, err := wire.ReadFrame(conn, 0); err != nil || typ != wire.TypeResult {
		t.Fatalf("BEGIN reply: typ=%#x err=%v", typ, err)
	}
	conn.Close()

	// The server must abort the session: no active transactions, and
	// every acct row lockable again.
	deadline := time.Now().Add(10 * time.Second)
	for eng.Txns().ActiveCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d transactions still active after disconnect", eng.Txns().ActiveCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 8; i++ {
		mustExec(t, c, fmt.Sprintf(`UPDATE acct SET balance = balance + 1 WHERE id = %d`, i))
	}
}
