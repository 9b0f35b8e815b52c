package core_test

// The served statement path, held to the in-process one. A SELECT the
// server runs never becomes tuples: the plan root encodes its slots for the
// wire inside the statement (Session.ExecTo, Cursor.AppendRows). These tests
// speak the wire protocol over loopback and compare the frames the server
// writes, byte for byte, with what wire's encoders make of the in-process
// result of the same statement on the same engine. They live here, not in
// internal/server, for the corpora of the in-process differentials and for
// the arena poisoning this directory's tests run under.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/value"
	"repro/internal/wire"
)

func starEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.New(core.Config{NumPEs: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	core.SetupStar(t, e)
	return e
}

// serve puts a server in front of eng on a loopback port.
func serve(t *testing.T, eng *core.Engine) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(server.Config{Engine: eng})
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
		if err := <-done; !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	})
	return srv, l.Addr().String()
}

// rawConn is a client that keeps the reply frames as the server wrote them
// and allocates nothing per frame, so the process's allocations during a
// run of statements are the server's.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  []byte
}

func dialRaw(t *testing.T, addr string, hello []byte) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &rawConn{t: t, conn: conn, br: bufio.NewReaderSize(conn, 64<<10), bw: bufio.NewWriter(conn), buf: make([]byte, 1<<20)}
	if typ, payload := c.roundTrip(wire.TypeHello, hello); typ != wire.TypeHelloOK {
		t.Fatalf("handshake answered %#x %q", typ, payload)
	}
	return c
}

func (c *rawConn) send(typ byte, payload []byte) {
	c.t.Helper()
	if err := wire.WriteFrame(c.bw, typ, payload); err != nil {
		c.t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

// recv reads one frame; the payload is valid until the next recv.
func (c *rawConn) recv() (byte, []byte) {
	c.t.Helper()
	typ, payload, err := wire.ReadFrameBuf(c.br, 0, c.buf[:0])
	if err != nil {
		c.t.Fatal(err)
	}
	return typ, payload
}

func (c *rawConn) roundTrip(typ byte, payload []byte) (byte, []byte) {
	c.t.Helper()
	c.send(typ, payload)
	return c.recv()
}

// result sends one frame and returns the Result payload it is answered
// with, the two clock fields zeroed; an Error frame fails the test.
func (c *rawConn) result(typ byte, payload []byte) []byte {
	c.t.Helper()
	rtyp, reply := c.roundTrip(typ, payload)
	if rtyp != wire.TypeResult {
		_, msg, _ := wire.DecodeError(reply)
		c.t.Fatalf("%q answered %#x %s", payload, rtyp, msg)
	}
	return maskClocks(bytes.Clone(reply))
}

func (c *rawConn) exec(sql string) []byte { c.t.Helper(); return c.result(wire.TypeExec, []byte(sql)) }

// maskClocks zeroes SimTime and WallTime of a Result payload: flags,
// affected, two length-prefixed strings, then the two.
func maskClocks(payload []byte) []byte {
	off := 9
	for i := 0; i < 2; i++ {
		off += 4 + int(binary.BigEndian.Uint32(payload[off:]))
	}
	clear(payload[off : off+16])
	return payload
}

// streamed is one ExecStream reply: the frames between head and end.
type streamed struct {
	head   []byte
	chunks [][]byte
	rows   int64
}

func (c *rawConn) stream(sql string, chunkRows, chunkBytes int) streamed {
	c.t.Helper()
	typ, payload := c.roundTrip(wire.TypeExecStream, wire.EncodeExecStream(chunkRows, chunkBytes, sql))
	if typ != wire.TypeResultHead {
		_, msg, _ := wire.DecodeError(payload)
		c.t.Fatalf("ExecStream %q answered %#x %s", sql, typ, msg)
	}
	out := streamed{head: bytes.Clone(payload)}
	for {
		switch typ, payload = c.recv(); typ {
		case wire.TypeRowChunk:
			out.chunks = append(out.chunks, bytes.Clone(payload))
		case wire.TypeResultEnd:
			end, err := wire.DecodeResultEnd(payload)
			if err != nil {
				c.t.Fatal(err)
			}
			out.rows = end.Rows
			return out
		default:
			_, msg, _ := wire.DecodeError(payload)
			c.t.Fatalf("mid-stream %#x %s", typ, msg)
		}
	}
}

// inProcess is the oracle for result: the statement through Session.Exec,
// its Result through wire's encoder with the clocks left zero.
func inProcess(t *testing.T, s *core.Session, sql string) []byte {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return wire.AppendResult(nil, &wire.Result{Rel: res.Rel, Affected: res.Affected, Msg: res.Msg, Plan: res.Plan})
}

// inProcessStream is the oracle for stream: the in-process cursor's tuple
// batches, cut into chunks by the rule the server documents — a tuple at a
// time, a chunk closed when it holds chunkRows tuples or chunkBytes bytes,
// before a tuple that would take it past chunkBytes, and at the end of a
// batch another follows.
func inProcessStream(t *testing.T, s *core.Session, sql string, chunkRows, chunkBytes int) streamed {
	t.Helper()
	if chunkRows <= 0 {
		chunkRows = wire.DefaultChunkRows
	}
	if chunkBytes <= 0 {
		chunkBytes = wire.DefaultChunkBytes
	}
	cur, _, err := s.Stream(sql)
	if err != nil || cur == nil {
		t.Fatalf("%s: cursor %v, %v", sql, cur, err)
	}
	defer cur.Close()
	out := streamed{head: wire.EncodeResultHead(&wire.ResultHead{Plan: cur.Plan(), Schema: cur.Schema()})}
	var pending []value.Tuple
	size := 0
	emit := func() {
		if len(pending) > 0 {
			out.chunks = append(out.chunks, wire.EncodeRowChunk(pending))
		}
		pending, size = nil, 0
	}
	next := func() *value.Relation {
		rel, err := cur.Next()
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rel
	}
	for rel := next(); rel != nil; {
		for _, tup := range rel.Tuples {
			n := len(value.AppendTuple(nil, tup))
			if len(pending) > 0 && size+n > chunkBytes {
				emit()
			}
			pending, size = append(pending, tup), size+n
			if len(pending) >= chunkRows || size >= chunkBytes {
				emit()
			}
		}
		if rel = next(); rel != nil {
			emit()
		}
	}
	emit()
	out.rows = cur.Rows()
	return out
}

func sameStream(t *testing.T, what string, got, want streamed) {
	t.Helper()
	if !bytes.Equal(got.head, want.head) || got.rows != want.rows || len(got.chunks) != len(want.chunks) {
		t.Errorf("%s: served head %x, %d rows in %d chunks; in process %x, %d rows in %d chunks",
			what, got.head, got.rows, len(got.chunks), want.head, want.rows, len(want.chunks))
		return
	}
	for i := range got.chunks {
		if !bytes.Equal(got.chunks[i], want.chunks[i]) {
			t.Errorf("%s: chunk %d of %d differs (%d vs %d bytes)", what, i, len(got.chunks), len(got.chunks[i]), len(want.chunks[i]))
			return
		}
	}
}

// The repository benchmark's four analytic_read statements (the star
// schema here has the columns they name), roots the corpora lack — empty
// results in both slot forms, a prepared-shape point probe, LIMIT over a
// scan — and a wide row with strings and NULLs.
var servedExtraQueries = []string{
	`SELECT id, amt FROM fact WHERE amt < 1`,
	`SELECT COUNT(*) AS n FROM fact f JOIN dim1 d1 ON f.a = d1.id WHERE f.amt < 48`,
	`SELECT a, COUNT(*) AS n, SUM(amt) AS s FROM fact WHERE amt < 48 GROUP BY a`,
	`SELECT d1.w, COUNT(*) AS n, SUM(f.amt) AS s FROM fact f JOIN dim1 d1 ON f.a = d1.id GROUP BY d1.w`,
	`SELECT id, amt FROM fact WHERE amt > 100000`,
	`SELECT * FROM fact WHERE id = -1`,
	`SELECT * FROM fact WHERE id = 5`,
	`SELECT id, cat FROM dim2 WHERE id < 700 LIMIT 40`,
	`SELECT * FROM mixed`,
	`SELECT s, id FROM mixed WHERE f > 1.0`,
}

// Statements that answer with a relation without running a SELECT plan.
var servedNonSelects = []string{
	`EXPLAIN SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.a = d1.id WHERE f.amt > 40`,
	`EXPLAIN UPDATE fact SET amt = 1 WHERE id = 3`,
	`SHOW ADMISSION`,
}

var chunkBudgets = [][2]int{{1, 0}, {0, 64}, {0, 0}} // rows, bytes; 0 = the default

// TestServedReplyBytesMatchInProcess: the Result payload the server writes
// for a statement is wire.AppendResult over the in-process result of the
// same statement, and its RowChunk payloads are the in-process cursor's
// tuples cut by the documented rule — for every plan shape of the
// in-process differentials, outside and inside a transaction with a
// pending write (one fragment then answers rows while its siblings stay
// columnar, so a root meets both slot forms), for EXPLAIN, SHOW ADMISSION
// and a PRISMAlog query.
func TestServedReplyBytesMatchInProcess(t *testing.T) {
	eng := starEngine(t)
	_, addr := serve(t, eng)
	local := eng.NewSession()
	defer local.Close()
	for _, sql := range []string{
		`CREATE TABLE mixed (id INT, s VARCHAR, f FLOAT, ok BOOLEAN, n INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 3 FRAGMENTS`,
		`INSERT INTO mixed VALUES (1, 'one', 1.5, TRUE, NULL), (2, NULL, -0.25, FALSE, 7), (3, '', NULL, NULL, 9), (4, 'four — 4', 40000000000.5, TRUE, NULL), (5, 'five', 5.0, NULL, 5)`,
		`CREATE TABLE edge (src INT, dst INT) FRAGMENT BY HASH(src) INTO 2 FRAGMENTS`,
		`INSERT INTO edge VALUES (0, 1), (1, 2), (2, 3), (3, 1)`,
	} {
		if _, err := local.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if err := eng.RegisterRules("reach(X, Y) :- edge(X, Y).\nreach(X, Y) :- edge(X, Z), reach(Z, Y)."); err != nil {
		t.Fatal(err)
	}
	c := dialRaw(t, addr, wire.EncodeHello("", ""))
	selects := append(append(append([]string{}, core.PartitionedPlanQueries...), core.VectorizedScanQueries...), servedExtraQueries...)
	all := append(append([]string{}, selects...), servedNonSelects...)

	compare := func(when string) {
		t.Helper()
		// The served side runs to the end before the in-process side
		// starts: inside the transactions both hold the same row's lock.
		var results [][]byte
		var streams []streamed
		for _, q := range all {
			results = append(results, c.exec(q))
		}
		for _, q := range selects {
			for _, b := range chunkBudgets {
				streams = append(streams, c.stream(q, b[0], b[1]))
			}
		}
		datalog := c.result(wire.TypeDatalog, []byte(`reach(0, X)`))
		if when != "" {
			c.exec(`ROLLBACK`)
			inProcess(t, local, `BEGIN`)
			inProcess(t, local, `UPDATE fact SET amt = 1000 WHERE id = 5`)
			defer inProcess(t, local, `ROLLBACK`)
		}
		for i, q := range all {
			if want := inProcess(t, local, q); !bytes.Equal(results[i], want) {
				t.Errorf("%s%s: served Result payload (%d bytes) differs from the in-process one (%d bytes)", q, when, len(results[i]), len(want))
			}
		}
		for i, q := range selects {
			for k, b := range chunkBudgets {
				sameStream(t, fmt.Sprintf("%s%s, chunks of %d rows / %d bytes", q, when, b[0], b[1]),
					streams[i*len(chunkBudgets)+k], inProcessStream(t, local, q, b[0], b[1]))
			}
		}
		rel, err := eng.DatalogQuery(local, `reach(0, X)`)
		if err != nil {
			t.Fatal(err)
		}
		if want := wire.AppendResult(nil, &wire.Result{Rel: rel}); !bytes.Equal(datalog, want) || rel.Len() != 3 {
			t.Errorf("PRISMAlog%s: served %x, in process %x", when, datalog, want)
		}
	}
	compare("")
	c.exec(`BEGIN`)
	c.exec(`UPDATE fact SET amt = 1000 WHERE id = 5`)
	compare(" (inside a writing transaction)")
	if n := value.ArenaLive(); n != 0 {
		t.Errorf("%d arena payloads still lent after the served statements", n)
	}
}

// TestServedJoinEncodesBeforeArenaRelease: the columns of a repartition
// join's root batch are payloads lent by the statement's arena. This
// package's tests overwrite a payload when it is handed back, so the rows
// the server sent are right only if they were encoded before that.
func TestServedJoinEncodesBeforeArenaRelease(t *testing.T) {
	eng := starEngine(t)
	_, addr := serve(t, eng)
	c := dialRaw(t, addr, wire.EncodeHello("", ""))
	const q = `SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.a = d1.id`
	for round := 0; round < 3; round++ { // later rounds borrow poisoned payloads
		res, err := wire.DecodeResult(c.exec(q))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Plan, "method=repartition") {
			t.Fatalf("not a repartition join:\n%s", res.Plan)
		}
		if res.Rel.Len() != 4400 {
			t.Fatalf("join answered %d rows, want 4400", res.Rel.Len())
		}
		for _, tup := range res.Rel.Tuples {
			if id := tup[0].Int(); id < 0 || id >= 4400 || tup[1].Int() != id%2200%7 {
				t.Fatalf("round %d: row %v is not a row of the join: encoded from a payload already handed back", round, tup)
			}
		}
		if n := value.ArenaLive(); n != 0 {
			t.Fatalf("%d arena payloads still lent after the statement", n)
		}
	}
}

// TestServedScansSurviveSlotReuse: the batches of a filter scan select rows
// of the fragments' column caches, which a vacuum may refill once no
// snapshot pins them. Served scans run against a writer of point updates,
// a vacuum loop and other scanners; every reply must be
// the committed rows with amt = 0 — their ids multiples of 97, all 46 of
// them — which holds only while the encode runs under the statement's pin
// (under -race a later encode is a reported race before it is a wrong row).
// A stream abandoned mid-way hands its arena back too.
func TestServedScansSurviveSlotReuse(t *testing.T) {
	eng := starEngine(t)
	srv, addr := serve(t, eng)
	var stop atomic.Bool
	var wg sync.WaitGroup
	const filter = `SELECT id, amt FROM fact WHERE amt < 1`
	checkRows := func(tuples []value.Tuple) error {
		for _, tup := range tuples {
			if tup[0].Int()%97 != 0 || tup[1].Int() != 0 {
				return fmt.Errorf("filter scan returned %v", tup)
			}
		}
		return nil
	}
	errs := make([]error, 4)
	wg.Add(4)
	go func() {
		defer wg.Done()
		s := eng.NewSession()
		defer s.Close()
		// A row the scans select, then one they do not: the version the
		// first leaves dead is vacuumed, and the second's new version is
		// what refills its cache row.
		for i := 0; i < 3000 && errs[0] == nil; i++ {
			id := i / 2 % 46 * 97
			if i%2 == 1 {
				id = 1 + i%96
			}
			_, errs[0] = s.Exec(fmt.Sprintf(`UPDATE fact SET b = b + 1 WHERE id = %d`, id))
		}
		stop.Store(true)
	}()
	go func() {
		defer wg.Done()
		for !stop.Load() && errs[1] == nil {
			_, errs[1] = eng.VacuumTable("fact")
			runtime.Gosched()
		}
	}()
	// Other readers' scans are what fold the writer's versions into the
	// caches, patching vectors the served scan may still be selecting from.
	for w := 2; w < 4; w++ {
		go func() {
			defer wg.Done()
			s := eng.NewSession()
			defer s.Close()
			for !stop.Load() && errs[w] == nil {
				rel, err := s.Query(filter)
				if err == nil && rel.Len() != 46 {
					err = fmt.Errorf("in-process filter scan: %d rows", rel.Len())
				}
				if err == nil {
					err = checkRows(rel.Tuples)
				}
				errs[w] = err
			}
		}()
	}
	c := dialRaw(t, addr, wire.EncodeHello("", ""))
	check := func(tuples []value.Tuple) {
		t.Helper()
		if err := checkRows(tuples); err != nil {
			t.Fatal(err)
		}
	}
	schema := value.MustSchema("id", "INT", "amt", "INT")
	for i := 0; !stop.Load() || i < 4; i++ {
		if i%2 == 0 {
			res, err := wire.DecodeResult(c.exec(filter))
			if err != nil || res.Rel.Len() != 46 {
				t.Fatalf("filter scan: %v rows, %v", res, err)
			}
			check(res.Rel.Tuples)
			continue
		}
		rows := 0
		for _, chunk := range c.stream(filter, 5, 0).chunks {
			tuples, err := wire.DecodeRowChunk(chunk, schema)
			if err != nil {
				t.Fatal(err)
			}
			check(tuples)
			rows += len(tuples)
		}
		if rows != 46 {
			t.Fatalf("streamed filter scan: %d rows", rows)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}

	// A join stream the client walks away from after its head: the server
	// closes the cursor when the connection goes, and the arena with it.
	gone := dialRaw(t, addr, wire.EncodeHello("", ""))
	if typ, _ := gone.roundTrip(wire.TypeExecStream, wire.EncodeExecStream(1, 0, `SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.a = d1.id`)); typ != wire.TypeResultHead {
		t.Fatalf("stream opened with %#x", typ)
	}
	gone.conn.Close()
	c.conn.Close()
	for srv.ConnCount() > 0 {
		runtime.Gosched()
	}
	if n := value.ArenaLive(); n != 0 {
		t.Errorf("%d arena payloads still lent after a stream closed mid-way", n)
	}
}

// TestServedMemBudgetChargesAlike: the plan root's slots are charged to the
// tenant's budget by one account whatever form they leave in, so a tenant
// over its budget reads the same error — it names the bytes charged — from
// the server as from an in-process session, materialized and streamed.
func TestServedMemBudgetChargesAlike(t *testing.T) {
	eng := starEngine(t)
	_, addr := serve(t, eng)
	admin := eng.NewSession()
	defer admin.Close()
	for _, sql := range []string{
		`CREATE USER acme PASSWORD 's3cret' MEM_BUDGET 300000`,
		`GRANT SELECT ON fact TO acme`,
	} {
		if _, err := admin.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	user, err := eng.Catalog().GetUser("acme")
	if err != nil {
		t.Fatal(err)
	}
	local := eng.NewSession()
	defer local.Close()
	local.SetUser(user)
	c := dialRaw(t, addr, wire.EncodeHello("acme", "s3cret"))

	// Warm the column caches: their build is charged to the first scan.
	const fits, breaks = `SELECT id, amt FROM fact WHERE amt < 50`, `SELECT * FROM fact`
	if _, err := admin.Exec(breaks); err != nil {
		t.Fatal(err)
	}
	if res, err := wire.DecodeResult(c.exec(fits)); err != nil || res.Rel.Len() == 0 {
		t.Fatalf("a result inside the budget: %v, %v", res, err)
	}
	_, want := local.Exec(breaks)
	if !errors.Is(want, core.ErrMemBudget) {
		t.Fatalf("in process: %v, want ErrMemBudget", want)
	}
	typ, payload := c.roundTrip(wire.TypeExec, []byte(breaks))
	if _, msg, _ := wire.DecodeError(payload); typ != wire.TypeError || msg != want.Error() {
		t.Errorf("served: %#x %q\nin process: %q", typ, msg, want)
	}
	// Streamed, the breach comes with the batch that crosses the line.
	cur, _, err := local.Stream(breaks)
	if err != nil {
		t.Fatal(err)
	}
	for want = nil; want == nil; {
		var rel *value.Relation
		if rel, want = cur.Next(); rel == nil && want == nil {
			t.Fatal("in-process stream ended inside the budget")
		}
	}
	c.send(wire.TypeExecStream, wire.EncodeExecStream(0, 0, breaks))
	for typ = wire.TypeResultHead; typ == wire.TypeResultHead || typ == wire.TypeRowChunk; {
		typ, payload = c.recv()
	}
	if _, msg, _ := wire.DecodeError(payload); typ != wire.TypeError || msg != want.Error() {
		t.Errorf("served stream: %#x %q\nin process: %q", typ, msg, want)
	}
}

// serverAllocPerReply runs the statement n times over an allocation-free
// client with the collector off (so no pool is emptied mid-run) and returns
// the bytes the process — that is, the server — allocated per reply.
func serverAllocPerReply(t *testing.T, c *rawConn, sql string, wantRows, n int) uint64 {
	t.Helper()
	run := func() {
		typ, payload := c.roundTrip(wire.TypeExec, []byte(sql))
		if typ != wire.TypeResult {
			t.Fatalf("%s answered %#x", sql, typ)
		}
		// Far enough into the payload to see the count without decoding.
		if !bytes.Contains(payload[:120], binary.BigEndian.AppendUint32(nil, uint32(wantRows))) {
			t.Fatalf("%s: reply does not carry %d rows", sql, wantRows)
		}
	}
	for i := 0; i < 5; i++ {
		run() // grow the connection's buffers, fill the pools
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestServedScanReplyBytes: what the server allocates for the benchmark's
// filter reply — 2 062 rows of two ints — is a tenth of what it did when
// the root built tuples for the encoder to walk (263 KB a reply then,
// measured by this test at the parent commit: 181 KB of tuples and the
// rest), and does not grow with the rows: a reply ten times the size
// costs the same few structs.
func TestServedScanReplyBytes(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	eng, err := core.New(core.Config{NumPEs: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	s := eng.NewSession()
	defer s.Close()
	if _, err := s.Exec(`CREATE TABLE fact (id INT, amt INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`); err != nil {
		t.Fatal(err)
	}
	const rows = 41240 // amt = id % 20: amt < 1 keeps 2 062 rows, amt < 10 keeps 20 620
	tuples := make([]value.Tuple, rows)
	for i := range tuples {
		tuples[i] = value.NewTuple(value.NewInt(int64(i)), value.NewInt(int64(i%20)))
	}
	if err := eng.LoadTable("fact", tuples); err != nil {
		t.Fatal(err)
	}
	_, addr := serve(t, eng)
	c := dialRaw(t, addr, wire.EncodeHello("", ""))
	small := serverAllocPerReply(t, c, `SELECT id, amt FROM fact WHERE amt < 1`, 2062, 50)
	large := serverAllocPerReply(t, c, `SELECT id, amt FROM fact WHERE amt < 10`, 20620, 50)
	t.Logf("server allocates %d bytes per 2 062-row reply, %d per 20 620-row reply", small, large)
	const parent = 263000
	if small > parent/10 {
		t.Errorf("%d bytes allocated per 2 062-row reply, want <= %d", small, parent/10)
	}
	if large > small+small/4+1024 {
		t.Errorf("%d bytes allocated per 20 620-row reply against %d per 2 062-row reply: the reply's rows are being copied", large, small)
	}
}
