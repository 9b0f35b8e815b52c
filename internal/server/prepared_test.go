package server

import (
	"errors"
	"net"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/wire"
)

// prepSchema loads a small table for the prepared-statement tests.
func prepSchema(t *testing.T, c *client.Client) {
	t.Helper()
	if _, err := c.Exec(`CREATE TABLE acct (id INT, region VARCHAR, balance INT, PRIMARY KEY (id))
		FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO acct VALUES (1, 'eu', 100), (2, 'us', 200), (3, 'apac', 300)`); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedRoundTrip(t *testing.T) {
	addr := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	prepSchema(t, c)

	stmt, err := c.Prepare(`SELECT * FROM acct WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams = %d", stmt.NumParams())
	}
	for id := 1; id <= 3; id++ {
		rel, err := stmt.Query(id)
		if err != nil {
			t.Fatalf("id=%d: %v", id, err)
		}
		if rel.Len() != 1 || rel.Tuples[0][2].Int() != int64(id*100) {
			t.Fatalf("id=%d: %v", id, rel.Tuples)
		}
	}

	// Prepared DML with mixed Go scalar args.
	up, err := c.Prepare(`UPDATE acct SET balance = balance + ? WHERE region = ?`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := up.Exec(5, "eu")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}

	// Close releases the statement; further executes get a clean
	// statement error and the connection survives.
	if err := stmt.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = stmt.Query(1)
	var se *client.ServerError
	if !errors.As(err, &se) || !strings.Contains(err.Error(), "unknown or closed") {
		t.Fatalf("exec after close: %v", err)
	}
	if _, err := c.Query(`SELECT * FROM acct WHERE id = 2`); err != nil {
		t.Fatalf("connection unusable after stale-id error: %v", err)
	}
}

// TestRetriedPointRoundTripAllocs bars the allocations of the whole
// short-statement path — client.Retry around Stmt.Exec of a prepared
// point SELECT, client and server both in this process — so a per-call
// cost in any layer of it (the retry wrapper's PRNG, a frame header that
// escapes, a probe key grown twice) is seen by `go test`. 33 today, 41
// before PR 18; allocation counts differ under -race, which skips it.
func TestRetriedPointRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	addr := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	prepSchema(t, c)
	stmt, err := c.Prepare(`SELECT * FROM acct WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	const bar = 36
	if n := testing.AllocsPerRun(500, func() {
		err := client.Retry(func() error {
			res, err := stmt.Exec(2)
			if err == nil && res.Rel.Len() != 1 {
				t.Errorf("rows = %d", res.Rel.Len())
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}); n > bar {
		t.Errorf("a retried prepared point round trip allocates %v times, want <= %d", n, bar)
	}
}

func TestBindExecUnknownID(t *testing.T) {
	addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	handshake(t, conn)

	// A well-formed BindExec for an id that never existed is a
	// statement error, not a connection drop.
	if err := wire.WriteFrame(conn, wire.TypeBindExec, wire.EncodeBindExec(9999, nil)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeError || !strings.Contains(string(payload), "unknown or closed prepared statement id 9999") {
		t.Fatalf("frame 0x%02x %q", typ, payload)
	}
	// The connection is still fully usable.
	if err := wire.WriteFrame(conn, wire.TypeExec, []byte(`CREATE TABLE ok (x INT)`)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeResult {
		t.Fatalf("after stale-id error: frame 0x%02x %q", typ, payload)
	}
}

func TestPreparedLRUEviction(t *testing.T) {
	addr := startServer(t, Config{MaxPrepared: 2})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	prepSchema(t, c)

	s1, err := c.Prepare(`SELECT * FROM acct WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Prepare(`SELECT * FROM acct WHERE balance > ?`)
	if err != nil {
		t.Fatal(err)
	}
	// Touch s1 so s2 is the least recently used, then overflow the cap.
	if _, err := s1.Query(1); err != nil {
		t.Fatal(err)
	}
	s3, err := c.Prepare(`SELECT * FROM acct WHERE region = ?`)
	if err != nil {
		t.Fatal(err)
	}
	// s2 was evicted; s1 and s3 still work.
	if _, err := s2.Query(150); err == nil || !strings.Contains(err.Error(), "unknown or closed") {
		t.Fatalf("evicted statement executed: %v", err)
	}
	if _, err := s1.Query(2); err != nil {
		t.Fatalf("survivor s1: %v", err)
	}
	if _, err := s3.Query("us"); err != nil {
		t.Fatalf("survivor s3: %v", err)
	}
}

func TestPrepareBadSQL(t *testing.T) {
	addr := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var se *client.ServerError
	if _, err := c.Prepare(`SELEC nope`); !errors.As(err, &se) {
		t.Fatalf("bad SQL prepare: %v", err)
	}
	// Connection stays usable.
	if _, err := c.Exec(`CREATE TABLE t (x INT)`); err != nil {
		t.Fatalf("after prepare error: %v", err)
	}
}

// TestMalformedBindExec: a structurally invalid BindExec payload is a
// protocol violation — the server explains in an Error frame, then
// closes.
func TestMalformedBindExec(t *testing.T) {
	addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	handshake(t, conn)
	if err := wire.WriteFrame(conn, wire.TypeBindExec, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("want Error frame before close, got %v", err)
	}
	if typ != wire.TypeError || !strings.Contains(string(payload), "BindExec") {
		t.Fatalf("frame 0x%02x %q", typ, payload)
	}
	expectClosed(t, conn)
}
