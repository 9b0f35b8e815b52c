package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/value"
	"repro/internal/wire"
)

// startServer brings up an engine and a server on a loopback port,
// returning the dial address. Everything shuts down with the test.
func startServer(t *testing.T, cfg Config) string {
	t.Helper()
	if cfg.Engine == nil {
		eng, err := core.New(core.Config{NumPEs: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		cfg.Engine = eng
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return l.Addr().String()
}

func TestEndToEndStatements(t *testing.T) {
	addr := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Exec(`CREATE TABLE emp (id INT, dept VARCHAR, salary INT, PRIMARY KEY (id))
		FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Msg, "created") {
		t.Fatalf("create msg = %q", res.Msg)
	}
	res, err = c.Exec(`INSERT INTO emp VALUES (1, 'eng', 100), (2, 'ops', 80), (3, 'eng', 120)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 3 {
		t.Fatalf("affected = %d", res.Affected)
	}
	rel, err := c.Query(`SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("groups = %d\n%v", rel.Len(), rel)
	}
	// Statement errors keep the connection usable.
	if _, err := c.Query(`SELECT * FROM nope`); err == nil {
		t.Fatal("query on missing table succeeded")
	} else if _, ok := err.(*client.ServerError); !ok {
		t.Fatalf("err = %T %v, want *client.ServerError", err, err)
	}
	if _, err := c.Query(`SELECT * FROM emp WHERE id = 2`); err != nil {
		t.Fatalf("connection unusable after statement error: %v", err)
	}
}

// TestExplainOverWire pins EXPLAIN end-to-end: the plan arrives as a
// one-column relation over both the materialized (Exec) and streaming
// (Query → ExecStream) request paths, and shows the optimizer's join
// method annotations.
func TestExplainOverWire(t *testing.T) {
	addr := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE emp (id INT, dept VARCHAR, PRIMARY KEY (id))
		FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`CREATE TABLE dept (name VARCHAR, budget INT, PRIMARY KEY (name))`); err != nil {
		t.Fatal(err)
	}
	const q = `EXPLAIN SELECT e.id FROM emp e JOIN dept d ON e.dept = d.name`
	for _, path := range []string{"exec", "stream"} {
		var rel *value.Relation
		if path == "exec" {
			res, err := c.Exec(q)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			rel = res.Rel
		} else {
			rel, err = c.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		if rel == nil || rel.Len() == 0 || rel.Schema.Len() != 1 {
			t.Fatalf("%s: EXPLAIN relation = %v", path, rel)
		}
		var all strings.Builder
		for _, row := range rel.Tuples {
			all.WriteString(row[0].Str())
			all.WriteByte('\n')
		}
		if !strings.Contains(all.String(), "Join(") || !strings.Contains(all.String(), "method=") {
			t.Fatalf("%s: plan output missing join annotations:\n%s", path, all.String())
		}
	}
}

func TestDatalogOverWire(t *testing.T) {
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
	if _, err := c.Exec(`CREATE TABLE edge (src INT, dst INT) FRAGMENT BY HASH(src) INTO 2 FRAGMENTS`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO edge VALUES (0, 1), (1, 2), (2, 3)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterRules(`
		reach(X, Y) :- edge(X, Y).
		reach(X, Y) :- edge(X, Z), reach(Z, Y).
	`); err != nil {
		t.Fatal(err)
	}
	rel, err := c.Datalog(`reach(0, X)`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Fatalf("answers = %d\n%v", rel.Len(), rel)
	}
}

// TestTransactionAcrossStatements exercises the per-session transaction
// state the protocol must preserve between frames.
func TestTransactionAcrossStatements(t *testing.T) {
	addr := startServer(t, Config{})
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

	mustExec(t, c1, `CREATE TABLE acct (id INT, balance INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 2 FRAGMENTS`)
	mustExec(t, c1, `INSERT INTO acct VALUES (1, 100), (2, 100)`)

	// Rollback undoes both updates.
	if err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c1, `UPDATE acct SET balance = balance - 40 WHERE id = 1`)
	mustExec(t, c1, `UPDATE acct SET balance = balance + 40 WHERE id = 2`)
	if err := c1.Rollback(); err != nil {
		t.Fatal(err)
	}
	checkBalance(t, c2, 1, 100)

	// Commit makes both visible to the other connection.
	if err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c1, `UPDATE acct SET balance = balance - 40 WHERE id = 1`)
	mustExec(t, c1, `UPDATE acct SET balance = balance + 40 WHERE id = 2`)
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}
	checkBalance(t, c2, 1, 60)
	checkBalance(t, c2, 2, 140)

	// Nested BEGIN is a statement error, not a connection killer.
	if err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Begin(); err == nil {
		t.Fatal("nested BEGIN succeeded")
	}
	if err := c1.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestDisconnectAbortsTransaction drops a connection mid-transaction and
// checks the server aborts it, releasing its locks for other sessions.
func TestDisconnectAbortsTransaction(t *testing.T) {
	eng, err := core.New(core.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	addr := l.Addr().String()

	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, c1, `CREATE TABLE acct (id INT, balance INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 2 FRAGMENTS`)
	mustExec(t, c1, `INSERT INTO acct VALUES (1, 100)`)
	if err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c1, `UPDATE acct SET balance = 0 WHERE id = 1`)
	c1.Close() // vanish mid-transaction, X lock still held

	// The server must notice, abort, and free the fragment for others.
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c2.Exec(`UPDATE acct SET balance = balance + 1 WHERE id = 1`)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fragment still locked after disconnect: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkBalance(t, c2, 1, 101) // the aborted UPDATE never landed
	if n := eng.Txns().ActiveCount(); n != 0 {
		t.Fatalf("%d transactions still active after disconnect", n)
	}
}

// ---------- raw-socket protocol abuse ----------

// rawDial opens a plain TCP connection without the client library.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn
}

func TestHandshakeRequired(t *testing.T) {
	addr := startServer(t, Config{})
	conn := rawDial(t, addr)
	// First frame is Exec, not Hello.
	if err := wire.WriteFrame(conn, wire.TypeExec, []byte("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeError || !strings.Contains(string(payload), "Hello") {
		t.Fatalf("reply = %#x %q", typ, payload)
	}
	expectClosed(t, conn)
}

func TestBadMagicRejected(t *testing.T) {
	addr := startServer(t, Config{})
	conn := rawDial(t, addr)
	if err := wire.WriteFrame(conn, wire.TypeHello, []byte("EVIL\x01")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeError || !strings.Contains(string(payload), "magic") {
		t.Fatalf("reply = %#x %q", typ, payload)
	}
	expectClosed(t, conn)
}

func TestVersionMismatchRejected(t *testing.T) {
	addr := startServer(t, Config{})
	conn := rawDial(t, addr)
	if err := wire.WriteFrame(conn, wire.TypeHello, []byte(wire.Magic+"\x63")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeError || !strings.Contains(string(payload), "version") {
		t.Fatalf("reply = %#x %q", typ, payload)
	}
	expectClosed(t, conn)
}

// TestVersionOneHelloRefused: a version-1 Hello, with or without the
// credentials it could carry, is refused by its version byte alone.
func TestVersionOneHelloRefused(t *testing.T) {
	addr := startServer(t, Config{})
	for _, hello := range []string{wire.Magic + "\x01", wire.Magic + "\x01\x00\x04acme\x00\x06s3cret"} {
		conn := rawDial(t, addr)
		if err := wire.WriteFrame(conn, wire.TypeHello, []byte(hello)); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, msg, derr := wire.DecodeError(payload)
		if typ != wire.TypeError || derr != nil || msg != "server: unsupported protocol version 1 (want 2)" {
			t.Fatalf("reply = %#x %q (%v)", typ, payload, derr)
		}
		expectClosed(t, conn)
	}
}

// TestSessionExistsBeforeHelloOK: the connection's session — and so its
// round-robin coordinator PE — is created before the handshake is
// answered: once Dial has returned, a session opened next takes the PE
// after the connection's, never the connection's own. A refused handshake
// creates no session and takes no PE.
func TestSessionExistsBeforeHelloOK(t *testing.T) {
	const pes = 8
	eng, err := core.New(core.Config{NumPEs: pes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	addr := startServer(t, Config{Engine: eng})
	prev := eng.NewSession().PE()
	for i := 0; i < 200; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		got := eng.NewSession().PE()
		c.Close()
		if want := (prev + 2) % pes; got != want {
			t.Fatalf("dial %d: a session opened after Dial returned sits on PE %d, want %d: the connection had not taken its own yet", i, got, want)
		}
		prev = got
	}
	for _, hello := range []string{"EVIL\x01", wire.Magic + "\x63"} {
		conn := rawDial(t, addr)
		if err := wire.WriteFrame(conn, wire.TypeHello, []byte(hello)); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := wire.ReadFrame(conn, 0); err != nil || typ != wire.TypeError {
			t.Fatalf("refused handshake answered %#x, %v", typ, err)
		}
		expectClosed(t, conn)
		got := eng.NewSession().PE()
		if want := (prev + 1) % pes; got != want {
			t.Fatalf("after a refused handshake the next session sits on PE %d, want %d: the refusal took one", got, want)
		}
		prev = got
	}
}

// TestReplyBuffersOutliveOnlyOrdinaryResults: a connection's two reply
// buffers keep what ordinary results grew them to, and let go of what one
// outsized result did.
func TestReplyBuffersOutliveOnlyOrdinaryResults(t *testing.T) {
	w := &replyWriter{bw: bufio.NewWriter(io.Discard), max: wire.DefaultMaxFrame, enc: wire.GetBuf(), rows: wire.GetBuf()}
	schema := value.MustSchema("id", "INT")
	reply := func(n int) {
		t.Helper()
		// As a statement would: the rows appended to the buffer it was handed.
		enc := &value.EncodedRows{Schema: schema, N: n, Bytes: *w.rows}
		for i := 0; i < n; i++ {
			enc.Bytes = value.AppendTuple(enc.Bytes, value.NewTuple(value.NewInt(int64(i))))
		}
		if !w.writeResult(&core.Result{Rows: enc}) {
			t.Fatal("writeResult failed")
		}
	}
	reply(5000) // 55 KB
	if cap(*w.rows) < 50<<10 || cap(*w.enc) < 50<<10 || len(*w.rows) != 0 {
		t.Errorf("after a 55 KB result the buffers hold %d and %d bytes", cap(*w.rows), cap(*w.enc))
	}
	reply(200000) // 2.2 MB
	if cap(*w.rows) > 1<<20 || cap(*w.enc) > 1<<20 {
		t.Errorf("after a 2.2 MB result the connection still holds buffers of %d and %d bytes", cap(*w.rows), cap(*w.enc))
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	addr := startServer(t, Config{MaxFrame: 1024})
	conn := rawDial(t, addr)
	// Declare a payload far over the server's limit; send only the
	// header — the server must refuse from the length alone.
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], 1<<30)
	hdr[4] = wire.TypeHello
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeError || !strings.Contains(string(payload), "size limit") {
		t.Fatalf("reply = %#x %q", typ, payload)
	}
	expectClosed(t, conn)
}

func TestUnknownFrameTypeAfterHandshake(t *testing.T) {
	addr := startServer(t, Config{})
	conn := rawDial(t, addr)
	handshake(t, conn)
	if err := wire.WriteFrame(conn, 0x7e, []byte("??")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeError || !strings.Contains(string(payload), "unknown frame type") {
		t.Fatalf("reply = %#x %q", typ, payload)
	}
	expectClosed(t, conn)
}

func TestTruncatedFrameThenDisconnect(t *testing.T) {
	addr := startServer(t, Config{})
	conn := rawDial(t, addr)
	handshake(t, conn)
	// Declare 100 bytes, send 3, vanish. The server must just drop the
	// connection — and keep serving others.
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], 100)
	hdr[4] = wire.TypeExec
	conn.Write(hdr[:])
	conn.Write([]byte("SEL"))
	conn.Close()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE t (x INT)`); err != nil {
		t.Fatalf("server unhealthy after truncated frame: %v", err)
	}
}

// TestMidQueryDisconnect sends a statement and slams the connection shut
// before the reply; the server must finish cleanly and drain the
// connection count.
func TestMidQueryDisconnect(t *testing.T) {
	eng, err := core.New(core.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	addr := l.Addr().String()

	seed, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, seed, `CREATE TABLE emp (id INT, salary INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`)
	mustExec(t, seed, `INSERT INTO emp VALUES (1, 10), (2, 20), (3, 30), (4, 40)`)
	seed.Close()

	for i := 0; i < 8; i++ {
		conn := rawDial(t, addr)
		handshake(t, conn)
		if err := wire.WriteFrame(conn, wire.TypeExec,
			[]byte(`SELECT id, SUM(salary) AS s FROM emp GROUP BY id`)); err != nil {
			t.Fatal(err)
		}
		conn.Close() // gone before (or while) the result is written
	}

	deadline := time.Now().Add(5 * time.Second)
	for srv.ConnCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still tracked after disconnects", srv.ConnCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the engine still answers.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rel, err := c.Query(`SELECT COUNT(*) AS n FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("count rows = %d", rel.Len())
	}
}

func TestConnectionLimit(t *testing.T) {
	addr := startServer(t, Config{MaxConns: 2})
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

	if _, err := client.Dial(addr); err == nil {
		t.Fatal("third connection admitted over MaxConns=2")
	} else if !strings.Contains(err.Error(), "connection limit") {
		t.Fatalf("refusal err = %v", err)
	} else if !client.IsRetryable(err) {
		// The refusal is a coded overload: back off and redial.
		t.Fatalf("connection refusal must be coded retryable: %v", err)
	}

	// Freeing a slot re-admits.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c4, err := client.Dial(addr)
		if err == nil {
			c4.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGracefulShutdown(t *testing.T) {
	eng, err := core.New(core.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	c, err := client.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `CREATE TABLE t (x INT)`)

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if _, err := c.Exec(`SELECT * FROM t`); err == nil {
		t.Fatal("statement succeeded on closed server")
	}
	if _, err := client.Dial(l.Addr().String()); err == nil {
		t.Fatal("dial succeeded on closed server")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestConcurrentWireClients runs a small mixed workload from many
// connections at once — the network-layer sibling of core's stress test.
func TestConcurrentWireClients(t *testing.T) {
	addr := startServer(t, Config{MaxConns: 32})
	seed, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, seed, `CREATE TABLE acct (id INT, balance INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`)
	for i := 0; i < 32; i++ {
		mustExec(t, seed, fmt.Sprintf(`INSERT INTO acct VALUES (%d, 100)`, i))
	}
	seed.Close()

	const workers = 8
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for i := 0; i < 15; i++ {
				id := (w*7 + i) % 32
				switch i % 3 {
				case 0:
					if _, err := c.Query(fmt.Sprintf(`SELECT * FROM acct WHERE id = %d`, id)); err != nil {
						errc <- fmt.Errorf("worker %d select: %w", w, err)
						return
					}
				case 1:
					if _, err := c.Exec(fmt.Sprintf(`UPDATE acct SET balance = balance + 1 WHERE id = %d`, id)); err != nil {
						if !strings.Contains(err.Error(), "deadlock") {
							errc <- fmt.Errorf("worker %d update: %w", w, err)
							return
						}
					}
				case 2:
					if _, err := c.Query(`SELECT COUNT(*) AS n FROM acct`); err != nil {
						errc <- fmt.Errorf("worker %d count: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// ---------- helpers ----------

func handshake(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := wire.WriteFrame(conn, wire.TypeHello, wire.EncodeHello("", "")); err != nil {
		t.Fatal(err)
	}
	typ, _, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeHelloOK {
		t.Fatalf("handshake reply = %#x", typ)
	}
}

// expectClosed asserts the server hung up on us.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [1]byte
	if _, err := conn.Read(buf[:]); err != io.EOF {
		t.Fatalf("read after protocol error = %v, want EOF", err)
	}
}

func mustExec(t *testing.T, c *client.Client, sql string) {
	t.Helper()
	if _, err := c.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func checkBalance(t *testing.T, c *client.Client, id, want int) {
	t.Helper()
	rel, err := c.Query(fmt.Sprintf(`SELECT balance FROM acct WHERE id = %d`, id))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("acct %d: %d rows", id, rel.Len())
	}
	if got := rel.Tuples[0][0].Int(); int(got) != want {
		t.Fatalf("acct %d balance = %d, want %d", id, got, want)
	}
}
