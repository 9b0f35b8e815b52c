// Package client is the Go client library for the PRISMA network
// front-end (cmd/prisma-serve). It speaks the internal/wire protocol:
// Dial performs the handshake, then Exec/Query/Datalog each send one
// statement frame and read one Result or Error frame back.
//
// A Client multiplexes nothing: one statement is in flight at a time,
// guarded by an internal mutex, so a Client is safe for concurrent use
// but concurrent callers serialize. For parallel load, open one Client
// per goroutine — server sessions are cheap, mirroring the paper's
// per-query component instances.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/value"
	"repro/internal/wire"
)

// Options tunes a connection.
type Options struct {
	// DialTimeout bounds the TCP connect (default 5s).
	DialTimeout time.Duration
	// MaxFrame bounds response frames (default wire.DefaultMaxFrame).
	MaxFrame int
	// ChunkRows asks the server for at most this many tuples per
	// streamed chunk (0 lets the server pick its default).
	ChunkRows int
	// ChunkBytes asks the server for at most roughly this many payload
	// bytes per streamed chunk (default wire.DefaultChunkBytes). It is
	// clamped to half of MaxFrame so the server's chunks — which may
	// overshoot the budget by one tuple — always fit this connection's
	// own frame limit (a single tuple larger than MaxFrame still cannot
	// be received).
	ChunkBytes int
	// StatementTimeout arms per-statement deadlines on both ends: the
	// session's lock waits are bounded server-side (`SET
	// STATEMENT_TIMEOUT`, surfacing a retryable deadline error), and
	// every reply read gets a client-side deadline with generous
	// headroom — if the server stops answering entirely, the read fails
	// and the connection is marked broken instead of hanging forever.
	// 0 disables both.
	StatementTimeout time.Duration
	// Tenant and Secret are the credentials presented at handshake.
	// A server whose catalog holds users authenticates them (failure
	// is a coded, non-retryable auth error); a server without users
	// ignores them. Leaving Tenant empty sends a legacy Hello with no
	// credential trailer.
	Tenant string
	Secret string
}

// ServerError is a statement error reported by the server. The
// connection remains usable after one.
type ServerError struct {
	// Code is the server's wire.ErrCode* classification (ErrCodeGeneric
	// for servers predating coded errors).
	Code byte
	Msg  string
}

// Error implements error.
func (e *ServerError) Error() string { return e.Msg }

// Retryable reports whether the server promised the statement's
// transaction did not commit, so the client may safely re-run it.
func (e *ServerError) Retryable() bool { return wire.RetryableCode(e.Code) }

// serverError decodes an Error frame payload (coded or legacy).
func serverError(payload []byte) *ServerError {
	code, msg := wire.DecodeError(payload)
	return &ServerError{Code: code, Msg: msg}
}

// IsRetryable reports whether err is a server-classified transient
// transaction failure (deadlock victim, write conflict, clean abort,
// lock-wait deadline): the transaction did NOT commit and re-running it
// is safe. Transport failures and broken connections are NOT retryable
// — an in-flight COMMIT may have landed before the connection died.
func IsRetryable(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Retryable()
}

// Client is one connection to a PRISMA server.
type Client struct {
	mu          sync.Mutex // serializes statements; held across an open Rows stream
	conn        net.Conn
	br          *bufio.Reader
	bw          *bufio.Writer
	max         int
	chunkRows   int
	chunkBytes  int
	stmtTimeout time.Duration

	stateMu sync.Mutex // guards broken; never held while blocking on I/O
	broken  error      // sticky protocol/transport failure

	frameMax atomic.Int64 // largest frame observed (diagnostics, E13)

	// Role metadata from the HelloOK trailer (see wire.HelloExtra).
	role    byte
	epoch   uint64
	primary string
}

// Role reports the server's replication role at handshake time:
// wire.RolePrimary or wire.RoleReplica. Servers predating replication
// report primary.
func (c *Client) Role() byte { return c.role }

// Epoch reports the server's replication fencing epoch at handshake
// time (0 for servers predating replication).
func (c *Client) Epoch() uint64 { return c.epoch }

// PrimaryAddr reports the primary address a replica advertised for
// write redirects ("" when unknown or when the server is the primary).
func (c *Client) PrimaryAddr() string { return c.primary }

// Broken reports the sticky transport/protocol failure that has made
// this connection permanently unusable (nil while healthy). Statement
// errors — including retryable sheds and auth denials — do NOT break a
// connection.
func (c *Client) Broken() error { return c.brokenErr() }

// brokenErr reports the sticky failure, if any.
func (c *Client) brokenErr() error {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.broken
}

// setBroken records the first sticky failure and closes the socket,
// unblocking any in-flight read. It takes only stateMu, so Close works
// even while a streamed result holds the statement mutex.
func (c *Client) setBroken(err error) {
	c.stateMu.Lock()
	first := c.broken == nil
	if first {
		c.broken = err
	}
	c.stateMu.Unlock()
	if first {
		c.conn.Close()
	}
}

// readFrameLocked reads one frame with c.mu held, recording its size
// as counted against the MaxFrame limit (type byte + payload). With a
// statement timeout armed the read carries a deadline of twice the
// timeout plus a second — the server-side lock-wait deadline answers
// first in any healthy exchange, so tripping this one means the server
// is gone and the connection is abandoned rather than waited on.
func (c *Client) readFrameLocked() (byte, []byte, error) {
	if c.stmtTimeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(2*c.stmtTimeout + time.Second))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	typ, payload, err := wire.ReadFrame(c.br, c.max)
	if err == nil {
		c.noteFrame(len(payload) + 1)
	}
	return typ, payload, err
}

// noteFrame tracks the largest frame seen on this connection.
func (c *Client) noteFrame(n int) {
	for {
		cur := c.frameMax.Load()
		if int64(n) <= cur || c.frameMax.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// MaxFrameObserved reports the largest frame this connection has
// received, in the units the MaxFrame limit uses (type byte + payload)
// — with streaming it stays near the chunk budget instead of growing
// with the result.
func (c *Client) MaxFrameObserved() int { return int(c.frameMax.Load()) }

// Dial connects to a PRISMA server and performs the handshake.
func Dial(addr string, opts ...Options) (*Client, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = wire.DefaultMaxFrame
	}
	if len(o.Tenant) > wire.MaxCredLen || len(o.Secret) > wire.MaxCredLen {
		return nil, fmt.Errorf("client: tenant and secret are limited to %d bytes each", wire.MaxCredLen)
	}
	conn, err := net.DialTimeout("tcp", addr, o.DialTimeout)
	if err != nil {
		return nil, err
	}
	chunkBytes := o.ChunkBytes
	if chunkBytes <= 0 {
		chunkBytes = wire.DefaultChunkBytes
	}
	if lim := o.MaxFrame / 2; chunkBytes > lim {
		chunkBytes = max(lim, 1)
	}
	c := &Client{
		conn:       conn,
		br:         bufio.NewReader(conn),
		bw:         bufio.NewWriter(conn),
		max:        o.MaxFrame,
		chunkRows:  o.ChunkRows,
		chunkBytes: chunkBytes,
	}
	hello := wire.EncodeHello()
	if o.Tenant != "" {
		hello = wire.EncodeHelloCreds(o.Tenant, o.Secret)
	}
	if err := wire.WriteFrame(c.bw, wire.TypeHello, hello); err != nil {
		conn.Close()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, err := wire.ReadFrame(c.br, c.max)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	switch typ {
	case wire.TypeHelloOK:
		if len(payload) < 1 {
			conn.Close()
			return nil, fmt.Errorf("client: empty HelloOK payload")
		}
		if int(payload[0]) != wire.Version {
			conn.Close()
			return nil, fmt.Errorf("client: server speaks protocol version %d (want %d)", payload[0], wire.Version)
		}
		if ex, err := wire.DecodeHelloOKExtra(payload); err == nil {
			c.role, c.epoch, c.primary = ex.Role, ex.Epoch, ex.Primary
		} else {
			c.role = wire.RolePrimary
		}
	case wire.TypeError:
		conn.Close()
		return nil, serverError(payload)
	default:
		conn.Close()
		return nil, fmt.Errorf("client: unexpected handshake frame type 0x%02x", typ)
	}
	if o.StatementTimeout > 0 {
		c.stmtTimeout = o.StatementTimeout
		if _, err := c.Exec(fmt.Sprintf("SET STATEMENT_TIMEOUT = %d", o.StatementTimeout.Milliseconds())); err != nil {
			conn.Close()
			return nil, fmt.Errorf("client: arming statement timeout: %w", err)
		}
	}
	return c, nil
}

// Close releases the connection, even while a streamed result is being
// read (the stream's pending read fails and its Rows is poisoned). The
// server aborts any open transaction and releases any locks a
// mid-stream cursor still held.
func (c *Client) Close() error {
	c.setBroken(errors.New("client: closed"))
	return nil
}

// roundTripRaw sends one frame and reads the reply frame, marking the
// connection broken on any transport failure. Callers interpret the
// reply type (and use breakConn for replies that violate the protocol).
func (c *Client) roundTripRaw(typ byte, payload []byte) (byte, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.brokenErr(); err != nil {
		return 0, nil, err
	}
	fail := func(err error) (byte, []byte, error) {
		c.setBroken(err)
		return 0, nil, err
	}
	if err := wire.WriteFrame(c.bw, typ, payload); err != nil {
		return fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return fail(err)
	}
	rtyp, rpayload, err := c.readFrameLocked()
	if err != nil {
		return fail(err)
	}
	return rtyp, rpayload, nil
}

// breakConn marks the connection unusable after a protocol violation
// and returns the error for the caller to propagate.
func (c *Client) breakConn(err error) error {
	c.setBroken(err)
	return err
}

// roundTrip sends one statement frame and reads its Result reply.
func (c *Client) roundTrip(typ byte, payload []byte) (*wire.Result, error) {
	rtyp, rpayload, err := c.roundTripRaw(typ, payload)
	if err != nil {
		return nil, err
	}
	switch rtyp {
	case wire.TypeResult:
		res, err := wire.DecodeResult(rpayload)
		if err != nil {
			return nil, c.breakConn(err)
		}
		return res, nil
	case wire.TypeError:
		// A statement-level failure: the session (and any transaction
		// the server kept open) is still live.
		return nil, serverError(rpayload)
	default:
		return nil, c.breakConn(fmt.Errorf("client: unexpected frame type 0x%02x", rtyp))
	}
}

// Exec executes one SQL statement and returns its full result.
func (c *Client) Exec(sql string) (*wire.Result, error) {
	return c.roundTrip(wire.TypeExec, []byte(sql))
}

// Query executes a SELECT (or other relation-producing statement) and
// returns the relation. It materializes over the streaming protocol, so
// — unlike Exec — the result may exceed the connection's frame limit:
// no single frame ever holds more than one chunk.
func (c *Client) Query(sql string) (*value.Relation, error) {
	rows, err := c.QueryStream(sql)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	if rows.Schema() == nil {
		// Statements that materialize without a cursor (EXPLAIN) answer
		// with a plain Result frame carrying the relation.
		if res := rows.Result(); res != nil && res.Rel != nil {
			return res.Rel, nil
		}
		return nil, fmt.Errorf("client: statement produced no relation")
	}
	rel := value.NewRelation(rows.Schema())
	for rows.Next() {
		rel.Tuples = append(rel.Tuples, rows.Tuple())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return rel, nil
}

// Datalog answers a PRISMAlog query such as "ancestor('ann', X)".
func (c *Client) Datalog(query string) (*value.Relation, error) {
	res, err := c.roundTrip(wire.TypeDatalog, []byte(query))
	if err != nil {
		return nil, err
	}
	if res.Rel == nil {
		return nil, fmt.Errorf("client: datalog query produced no relation")
	}
	return res.Rel, nil
}

// Begin opens an explicit transaction on the server session.
func (c *Client) Begin() error {
	_, err := c.Exec("BEGIN")
	return err
}

// Commit commits the open transaction.
func (c *Client) Commit() error {
	_, err := c.Exec("COMMIT")
	return err
}

// Rollback aborts the open transaction.
func (c *Client) Rollback() error {
	_, err := c.Exec("ROLLBACK")
	return err
}
