package server

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fragment"
	"repro/internal/value"
	"repro/internal/wire"
)

// bigEngine builds an engine holding table `big` (id INT, payload
// VARCHAR) with rows rows over 4 fragments; each encoded tuple is ~60
// bytes, so a few thousand rows outgrow small frame limits.
func bigEngine(t *testing.T, rows int) *core.Engine {
	return bigEngineWide(t, rows, 40)
}

// bigEngineWide controls the payload width, for tests that must exceed
// kernel socket buffering so a stream provably stays in flight.
func bigEngineWide(t *testing.T, rows, padLen int) *core.Engine {
	t.Helper()
	eng, err := core.New(core.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	schema := value.MustSchema("id", "INT", "payload", "VARCHAR")
	if err := eng.CreateTable("big", schema,
		&fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 4}, []int{0}); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", padLen)
	tuples := make([]value.Tuple, rows)
	for i := range tuples {
		tuples[i] = value.NewTuple(value.NewInt(int64(i)), value.NewString(pad))
	}
	if err := eng.LoadTable("big", tuples); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestStreamLargerThanMaxFrame is the streaming regression the frame
// cap used to impose: a SELECT whose result exceeds MaxFrame fails
// materialized but succeeds streamed, chunk by chunk.
func TestStreamLargerThanMaxFrame(t *testing.T) {
	const rows = 4000 // ~240 KiB encoded, well past the 64 KiB limit
	eng := bigEngine(t, rows)
	addr := startServer(t, Config{Engine: eng, MaxFrame: 64 << 10})
	c, err := client.Dial(addr, client.Options{MaxFrame: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Materialized delivery refuses the oversized result...
	_, err = c.Exec(`SELECT * FROM big`)
	var se *client.ServerError
	if !errors.As(err, &se) || !strings.Contains(err.Error(), "exceeds frame limit") {
		t.Fatalf("Exec err = %v, want frame-limit server error", err)
	}

	// ...while Query streams it through the same connection.
	rel, err := c.Query(`SELECT * FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != rows {
		t.Fatalf("streamed %d rows, want %d", rel.Len(), rows)
	}
	if got := c.MaxFrameObserved(); got > 64<<10 {
		t.Fatalf("peak frame %d exceeds the 64 KiB limit", got)
	}
	// The connection survived both statements.
	if _, err := c.Exec(`SELECT COUNT(*) AS n FROM big WHERE id = 1`); err != nil {
		t.Fatalf("connection unusable after streaming: %v", err)
	}
}

// TestSmallClientMaxFrame: a client whose own frame limit is far below
// the server's defaults must still stream large results — the client
// clamps its chunk request to fit its limit, and the server honors it.
func TestSmallClientMaxFrame(t *testing.T) {
	const rows = 4000
	eng := bigEngine(t, rows)
	addr := startServer(t, Config{Engine: eng}) // server default 8 MiB / 256 KiB chunks
	c, err := client.Dial(addr, client.Options{MaxFrame: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rel, err := c.Query(`SELECT * FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != rows {
		t.Fatalf("streamed %d rows, want %d", rel.Len(), rows)
	}
	if got := c.MaxFrameObserved(); got > 32<<10 {
		t.Fatalf("peak frame %d exceeds the client's 32 KiB limit", got)
	}
}

// TestRowsIterator exercises the Next/Scan/Err/Close surface, the End
// frame, and non-relation statements through QueryStream.
func TestRowsIterator(t *testing.T) {
	eng := bigEngine(t, 500)
	addr := startServer(t, Config{Engine: eng})
	c, err := client.Dial(addr, client.Options{ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows, err := c.QueryStream(`SELECT id, payload FROM big WHERE id < 100`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Schema() == nil || rows.Schema().Len() != 2 {
		t.Fatalf("schema = %v", rows.Schema())
	}
	if rows.Plan() == "" {
		t.Fatal("missing plan in result head")
	}
	seen := map[int64]bool{}
	for rows.Next() {
		var id int64
		var payload string
		if err := rows.Scan(&id, &payload); err != nil {
			t.Fatal(err)
		}
		if id < 0 || id >= 100 || seen[id] {
			t.Fatalf("unexpected or duplicate id %d", id)
		}
		seen[id] = true
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 100 {
		t.Fatalf("iterated %d rows, want 100", len(seen))
	}
	end := rows.End()
	if end == nil || end.Rows != 100 {
		t.Fatalf("end = %+v, want 100 rows", end)
	}
	if end.WallTime <= 0 {
		t.Fatalf("end.WallTime = %v", end.WallTime)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	// DDL through the streaming entry point behaves like Exec.
	dres, err := c.QueryStream(`CREATE TABLE other (x INT, PRIMARY KEY (x))`)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Next() {
		t.Fatal("DDL produced tuples")
	}
	if dres.Result() == nil || !strings.Contains(dres.Result().Msg, "created") {
		t.Fatalf("DDL result = %+v", dres.Result())
	}
	// Statement errors surface as ServerError with the connection usable.
	if _, err := c.QueryStream(`SELECT * FROM nonexistent`); err == nil {
		t.Fatal("streaming a bad statement succeeded")
	} else {
		var se *client.ServerError
		if !errors.As(err, &se) {
			t.Fatalf("err = %v, want ServerError", err)
		}
	}
	if _, err := c.Query(`SELECT COUNT(*) AS n FROM big`); err != nil {
		t.Fatalf("connection unusable after statement error: %v", err)
	}
}

// TestRowsCloseEarlyKeepsConnectionUsable drains an abandoned stream so
// the next statement on the connection still works.
func TestRowsCloseEarlyKeepsConnectionUsable(t *testing.T) {
	eng := bigEngine(t, 5000)
	addr := startServer(t, Config{Engine: eng})
	c, err := client.Dial(addr, client.Options{ChunkRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.QueryStream(`SELECT * FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	rel, err := c.Query(`SELECT * FROM big WHERE id = 7`)
	if err != nil {
		t.Fatalf("statement after early close: %v", err)
	}
	if rel.Len() != 1 {
		t.Fatalf("rows = %d", rel.Len())
	}
}

// TestStreamClientDisconnectMidStream drops the connection while the
// server is mid-stream: a writer of the scanned fragments must still get
// through, and the server must keep serving new connections. (The stream
// holds no locks, so this cannot catch a leaked read; the snapshot pin the
// stream does hold is TestStreamDisconnectReleasesSnapshotPin's.)
func TestStreamClientDisconnectMidStream(t *testing.T) {
	eng := bigEngine(t, 20000)
	addr := startServer(t, Config{Engine: eng})
	c, err := client.Dial(addr, client.Options{ChunkRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.QueryStream(`SELECT * FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	// Hard disconnect mid-stream (Close works while the stream owns the
	// connection).
	c.Close()

	// A writer takes X locks on the scanned fragments.
	w, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	done := make(chan error, 1)
	go func() {
		res, err := w.Exec(`UPDATE big SET payload = 'y' WHERE id = 3`)
		if err == nil && res.Affected != 1 {
			err = fmt.Errorf("affected = %d", res.Affected)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after disconnect: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer still blocked after the streaming client disconnected")
	}
}

// TestStreamDisconnectReleasesSnapshotPin drops the connection while a
// stream holds a snapshot pin; session teardown must settle the
// cursor so the garbage-collection horizon resumes tracking the
// watermark instead of staying stuck at the dead stream's snapshot.
func TestStreamDisconnectReleasesSnapshotPin(t *testing.T) {
	eng := bigEngine(t, 20000)
	addr := startServer(t, Config{Engine: eng})
	c, err := client.Dial(addr, client.Options{ChunkRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.QueryStream(`SELECT * FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	pinned := eng.Txns().Horizon() // the stream's snapshot holds it here
	c.Close()                      // abnormal teardown, stream still open

	w, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := w.Exec(`UPDATE big SET payload = 'z' WHERE id = 7`); err != nil {
			t.Fatalf("write after disconnect: %v", err)
		}
		if h := eng.Txns().Horizon(); h > pinned {
			break // pin released: horizon follows the new commits again
		}
		if time.Now().After(deadline) {
			t.Fatalf("horizon stuck at %d: disconnected stream's snapshot pin never released", pinned)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamServerShutdownMidStream closes the server while a stream is
// in flight: Close must not hang on the streaming connection, and the
// client must observe an error rather than a silent truncation.
func TestStreamServerShutdownMidStream(t *testing.T) {
	// ~20 MB of result: far beyond what kernel socket buffers can hold,
	// so the server is necessarily still writing when Close lands.
	eng := bigEngineWide(t, 100000, 200)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	c, err := client.Dial(l.Addr().String(), client.Options{ChunkRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.QueryStream(`SELECT * FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server Close hung on a mid-stream connection")
	}
	if err := <-serveDone; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}

	// Drain: the stream must terminate with an error, not look complete.
	n := 1
	for rows.Next() {
		n++
	}
	if n == 100000 && rows.End() != nil {
		t.Fatal("stream reported clean completion across a server shutdown")
	}
	if rows.Err() == nil && rows.End() == nil {
		t.Fatal("interrupted stream reports neither error nor completion")
	}
	rows.Close()

	// Every open transaction was aborted by the connection teardown.
	if got := eng.Txns().ActiveCount(); got != 0 {
		t.Fatalf("%d transactions still active after shutdown", got)
	}
}

// TestConcurrentStreams runs 16 streaming scans at once (with -race in
// CI) plus a writer, verifying every stream sees a consistent full
// scan and all locks drain.
func TestConcurrentStreams(t *testing.T) {
	const rows = 8000
	eng := bigEngine(t, rows)
	addr := startServer(t, Config{Engine: eng, MaxConns: 32})

	var wg sync.WaitGroup
	errCh := make(chan error, 17)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{ChunkRows: 256})
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			rs, err := c.QueryStream(`SELECT * FROM big`)
			if err != nil {
				errCh <- err
				return
			}
			n := 0
			for rs.Next() {
				n++
			}
			if err := rs.Err(); err != nil {
				errCh <- fmt.Errorf("stream %d: %w", i, err)
				return
			}
			if n != rows {
				errCh <- fmt.Errorf("stream %d saw %d rows, want %d", i, n, rows)
			}
		}(i)
	}
	// A writer interleaves point updates: S/X conflicts must serialize,
	// never wedge.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := client.Dial(addr)
		if err != nil {
			errCh <- err
			return
		}
		defer c.Close()
		for k := 0; k < 20; k++ {
			if _, err := c.Exec(fmt.Sprintf(`UPDATE big SET payload = 'w' WHERE id = %d`, k)); err != nil {
				errCh <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := eng.Txns().ActiveCount(); got != 0 {
		t.Fatalf("%d transactions still active after concurrent streams", got)
	}
}

// benchClient dials a server over a point-query table.
func benchClient(b *testing.B) *client.Client {
	b.Helper()
	eng, err := core.New(core.Config{NumPEs: 16})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	schema := value.MustSchema("id", "INT", "payload", "VARCHAR")
	if err := eng.CreateTable("big", schema,
		&fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 4}, []int{0}); err != nil {
		b.Fatal(err)
	}
	tuples := make([]value.Tuple, 4000)
	for i := range tuples {
		tuples[i] = value.NewTuple(value.NewInt(int64(i)), value.NewString("pppppppppp"))
	}
	if err := eng.LoadTable("big", tuples); err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Engine: eng})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Serve(l); close(done) }()
	b.Cleanup(func() { srv.Close(); <-done })
	c, err := client.Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkPointQueryMaterialized is the single-Result-frame baseline.
func BenchmarkPointQueryMaterialized(b *testing.B) {
	c := benchClient(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Exec(fmt.Sprintf(`SELECT * FROM big WHERE id = %d`, i%4000))
		if err != nil {
			b.Fatal(err)
		}
		if res.Rel.Len() != 1 {
			b.Fatalf("rows = %d", res.Rel.Len())
		}
	}
}

// BenchmarkPointQueryStreamed is the same lookup over the chunked
// protocol — the per-statement streaming overhead must stay negligible.
func BenchmarkPointQueryStreamed(b *testing.B) {
	c := benchClient(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := c.Query(fmt.Sprintf(`SELECT * FROM big WHERE id = %d`, i%4000))
		if err != nil {
			b.Fatal(err)
		}
		if rel.Len() != 1 {
			b.Fatalf("rows = %d", rel.Len())
		}
	}
}

// TestExecStreamMalformedFrame confirms a garbled ExecStream header is
// a protocol violation that closes the connection.
func TestExecStreamMalformedFrame(t *testing.T) {
	addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.TypeHello, wire.EncodeHello("", "")); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(conn, 0); err != nil || typ != wire.TypeHelloOK {
		t.Fatalf("handshake: typ=%#x err=%v", typ, err)
	}
	// 4 bytes is shorter than the 8-byte ExecStream header.
	if err := wire.WriteFrame(conn, wire.TypeExecStream, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn, 0)
	if err != nil || typ != wire.TypeError {
		t.Fatalf("reply: typ=%#x err=%v", typ, err)
	}
	if !strings.Contains(string(payload), "ExecStream") {
		t.Fatalf("error = %q", payload)
	}
	// The server closes after a protocol violation.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := wire.ReadFrame(conn, 0); err == nil {
		t.Fatal("connection still open after protocol violation")
	}
}

// TestExecStreamRoutesLikeExec: an ExecStream frame — what
// client.QueryStream sends and how prisma-shell runs every statement —
// reaches the same statement routing as an Exec frame, so the session and
// administration statements answer the same through both.
func TestExecStreamRoutesLikeExec(t *testing.T) {
	script := []string{
		`SET STATEMENT_TIMEOUT = 100`,
		`SHOW ADMISSION`,
		`CREATE USER alice PASSWORD 'pw' PRIORITY batch`,
		`CREATE TABLE t (id INT, PRIMARY KEY (id))`,
		`GRANT SELECT ON t TO alice`,
		`SHOW USERS`,
		`REVOKE SELECT ON t FROM alice`,
		`PROMOTE`,
		`DROP USER alice`,
		`DROP USER alice`,
	}
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
	// The script runs as an administrator: once alice exists, a connection
	// bound to no user runs nothing.
	run := func(via func(*client.Client, string) (*wire.Result, error)) []string {
		eng, err := core.New(core.Config{NumPEs: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		admin := eng.NewSession()
		defer admin.Close()
		if _, err := admin.Exec(`CREATE USER root PASSWORD 'pw' ADMIN`); err != nil {
			t.Fatal(err)
		}
		c, err := client.Dial(startServer(t, Config{Engine: eng}), client.Options{Tenant: "root", Secret: "pw"})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var out []string
		for _, sql := range script {
			out = append(out, describe(via(c, sql)))
		}
		return out
	}
	want := run((*client.Client).Exec)
	got := run(func(c *client.Client, sql string) (*wire.Result, error) {
		rows, err := c.QueryStream(sql)
		if err != nil {
			return nil, err
		}
		defer rows.Close()
		if rows.Schema() != nil {
			t.Fatalf("%s opened a cursor", sql)
		}
		return rows.Result(), nil
	})
	for i, sql := range script {
		if got[i] != want[i] {
			t.Errorf("%s\n ExecStream: %s\n       Exec: %s", sql, got[i], want[i])
		}
	}
	if errs := strings.Count(strings.Join(want, "\n"), "error: "); errs != 2 {
		t.Errorf("want exactly PROMOTE and the second DROP USER refused through Exec, got %q", want)
	}
}
