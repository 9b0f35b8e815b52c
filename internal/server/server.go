// Package server is the PRISMA network front-end: it serves the wire
// protocol of internal/wire over TCP, giving each connection its own
// core.Session. The paper's architecture is explicitly multi-user — "for
// each query a new instance [of the GDH components] is created, possibly
// running at its own processor" (§2.2) — and a session's coordinator PE
// plays that role here: statements from different connections execute
// concurrently against one engine, serialized only by fragment locks.
//
// Per-connection transaction state (BEGIN .. COMMIT/ROLLBACK) survives
// across statements; a connection that drops mid-transaction has its
// transaction aborted by the session close.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/txn"
	"repro/internal/wire"
)

// fpFrameWrite simulates a reply-frame write failure: the reply is
// dropped and the connection closes, exactly as a dying NIC would look
// to the client — who must treat the in-flight statement's outcome as
// unknown unless the error is known-retryable.
var fpFrameWrite = fault.Register("server.frame.write")

// errorCode classifies an execution error for the coded Error frame, so
// the client learns whether the failed transaction may safely re-run.
func errorCode(err error) byte {
	switch {
	case errors.Is(err, core.ErrAuth):
		return wire.ErrCodeAuth
	case errors.Is(err, admission.ErrOverloaded):
		return wire.ErrCodeOverloaded
	case errors.Is(err, core.ErrReadOnly):
		return wire.ErrCodeRedirect
	case errors.Is(err, txn.ErrTimeout):
		return wire.ErrCodeDeadline
	case txn.IsRetryable(err):
		return wire.ErrCodeRetryable
	}
	return wire.ErrCodeGeneric
}

// ReplSource serves replication subscribers — a connection that sends
// ReplSubscribe is handed over to it for the rest of its life. Wired
// to repl.Source on a primary.
type ReplSource interface {
	Serve(bw *bufio.Writer, payload []byte) error
}

// Config assembles a server.
type Config struct {
	// Engine is the database engine to serve (required).
	Engine *core.Engine
	// MaxConns caps concurrently served connections (default 64).
	// Connections beyond the cap are refused with an Error frame.
	MaxConns int
	// MaxFrame bounds request and response frames (default
	// wire.DefaultMaxFrame).
	MaxFrame int
	// MaxPrepared caps prepared statements held per connection (default
	// 64); preparing beyond the cap evicts the least-recently-used one.
	MaxPrepared int
	// StatementTimeout bounds every session's lock waits (see
	// core.Session.SetStatementTimeout); 0 waits forever. Clients can
	// still tighten (or loosen) their own session with
	// `SET STATEMENT_TIMEOUT = <ms>`.
	StatementTimeout time.Duration
	// PipelineDepth caps the request frames a connection may have
	// queued behind the one executing (default 64). The per-connection
	// reader stops reading once the queue is full — natural
	// backpressure on a client that pipelines faster than the engine
	// drains. Every statement is its own frame, so the cap counts
	// statements (and Prepare/ClosePrepared frames).
	PipelineDepth int
	// Admission, when set, gates statement execution through a shared
	// admission controller: per-tenant concurrency tokens, a global
	// in-flight cap, priority classes and bounded queueing with load
	// shedding (a coded retryable Error frame). Statements inside an
	// open transaction bypass admission — shedding mid-transaction
	// would break the retry-from-BEGIN contract. The controller is
	// also attached to the engine so SHOW ADMISSION can render it.
	Admission *admission.Controller
	// Logf receives connection-level diagnostics; nil discards them.
	Logf func(format string, args ...any)
	// Source, when set, serves replication subscribers (the primary
	// role). Connections sending ReplSubscribe are refused without it.
	Source ReplSource
	// PrimaryAddr, when set, names the primary this server redirects
	// writes to (the replica role); it rides in the HelloOK and
	// in redirect errors so clients can re-route.
	PrimaryAddr func() string
}

// Server accepts connections and serves statements against one engine.
type Server struct {
	eng         *core.Engine
	maxConns    int
	maxFrame    int
	maxPrepared int
	pipeDepth   int
	stmtTimeout time.Duration
	logf        func(string, ...any)
	source      ReplSource
	primaryAddr func() string
	adm         *admission.Controller

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool

	wg sync.WaitGroup
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// New builds a server over an engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: Config.Engine is required")
	}
	maxConns := cfg.MaxConns
	if maxConns <= 0 {
		maxConns = 64
	}
	maxFrame := cfg.MaxFrame
	if maxFrame <= 0 {
		maxFrame = wire.DefaultMaxFrame
	}
	maxPrepared := cfg.MaxPrepared
	if maxPrepared <= 0 {
		maxPrepared = 64
	}
	pipeDepth := cfg.PipelineDepth
	if pipeDepth <= 0 {
		pipeDepth = 64
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Admission != nil {
		// SHOW ADMISSION renders through the engine.
		cfg.Engine.SetAdmission(cfg.Admission)
	}
	return &Server{
		eng:         cfg.Engine,
		maxConns:    maxConns,
		maxFrame:    maxFrame,
		maxPrepared: maxPrepared,
		pipeDepth:   pipeDepth,
		stmtTimeout: cfg.StatementTimeout,
		logf:        logf,
		source:      cfg.Source,
		primaryAddr: cfg.PrimaryAddr,
		adm:         cfg.Admission,
		conns:       map[net.Conn]struct{}{},
	}, nil
}

// Serve accepts connections on l until Close. It always returns a
// non-nil error; after a graceful Close that error is ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		if !s.track(conn) {
			// Over the connection limit (or closing): refuse politely,
			// and retryably — the limit is a load condition, not a fault,
			// so a backing-off client may try again or move on to another
			// endpoint.
			bw := bufio.NewWriter(conn)
			wire.WriteFrame(bw, wire.TypeError, wire.EncodeError(wire.ErrCodeOverloaded, "server: connection limit reached"))
			bw.Flush()
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting, closes every live connection and waits for
// their handlers (which abort any open transactions) to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return err
}

// ConnCount reports the number of connections currently being served.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// track admits a connection unless the server is closing or full.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.conns) >= s.maxConns {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// request is one frame handed from a connection's reader to its
// executor. A request with err set is the reader's terminal report.
type request struct {
	typ     byte
	payload []byte
	buf     *[]byte // pooled backing buffer, recycled after execution
	err     error
}

// serveConn runs one connection: handshake, then a pipelined statement
// loop — a reader goroutine queues frames (up to PipelineDepth) while
// the executor drains them in order, so a client may send many
// statements without awaiting replies. Replies are coalesced: the
// buffered writer is flushed only when the queue is empty, so a burst
// of pipelined statements answers in a handful of syscalls. Any
// protocol violation closes the connection; statement errors are
// reported in Error frames, the rest of the pipeline still executes,
// and the connection stays usable.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 32<<10)
	bw := bufio.NewWriterSize(conn, 32<<10)

	fail := func(msg string) {
		wire.WriteFrame(bw, wire.TypeError, wire.EncodeError(wire.ErrCodeGeneric, msg))
		bw.Flush()
	}

	typ, payload, err := wire.ReadFrame(br, s.maxFrame)
	if err != nil {
		s.logf("server: %s: handshake read: %v", conn.RemoteAddr(), err)
		if errors.Is(err, wire.ErrFrameTooLarge) {
			fail(err.Error())
		}
		conn.Close()
		return
	}
	hsFail := func(msg string) {
		fail(msg)
		conn.Close()
	}
	if typ != wire.TypeHello {
		hsFail("server: expected Hello frame")
		return
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		hsFail(err.Error())
		return
	}
	if hello.Version != wire.Version {
		hsFail(fmt.Sprintf("server: unsupported protocol version %d (want %d)", hello.Version, wire.Version))
		return
	}
	// Authentication bites only once users exist: a catalog with no
	// user table serves every connection unbound, exactly as before.
	// Failures are coded ErrCodeAuth — non-retryable, so client retry
	// loops give up instead of hammering a wrong password.
	var user *catalog.User
	if cat := s.eng.Catalog(); cat.HasUsers() {
		var aerr error
		if hello.Tenant == "" {
			aerr = errors.New("server: authentication required")
		} else {
			user, aerr = cat.Authenticate(hello.Tenant, hello.Secret)
		}
		if aerr != nil {
			wire.WriteFrame(bw, wire.TypeError, wire.EncodeError(wire.ErrCodeAuth, aerr.Error()))
			bw.Flush()
			conn.Close()
			return
		}
	}
	ok := &wire.HelloOK{Version: wire.Version, Banner: "prisma-serve", Role: wire.RolePrimary, Epoch: s.eng.Epoch()}
	if s.eng.IsReadOnly() {
		ok.Role = wire.RoleReplica
		if s.primaryAddr != nil {
			ok.Primary = s.primaryAddr()
		}
	}

	// The session exists before the client hears HelloOK: a Dial that has
	// returned has its coordinator PE, so sessions opened after it take the
	// PEs after it. A refused handshake never gets here and takes none.
	sess := s.eng.NewSession()
	defer sess.Close() // aborts an open transaction on disconnect
	sess.SetStatementTimeout(s.stmtTimeout)
	if user != nil {
		sess.SetUser(user)
	}
	if wire.WriteFrame(bw, wire.TypeHelloOK, wire.EncodeHelloOK(ok)) != nil || bw.Flush() != nil {
		conn.Close()
		return
	}
	reg := newStmtRegistry(s.maxPrepared)

	// The reader decouples frame intake from execution: it queues up to
	// pipeDepth statements behind the executing one and parks when the
	// queue is full (backpressure). It owns pooled payload buffers until
	// the executor finishes with them.
	reqs := make(chan request, s.pipeDepth)
	go func() {
		defer close(reqs)
		for {
			bp := wire.GetBuf()
			typ, payload, err := wire.ReadFrameBuf(br, s.maxFrame, (*bp)[:0])
			if err != nil {
				wire.PutBuf(bp)
				reqs <- request{err: err}
				return
			}
			reqs <- request{typ: typ, payload: payload, buf: bp}
		}
	}()
	defer func() {
		// Unblock and drain the reader before returning: closing the
		// connection fails its next read, so the channel closes.
		conn.Close()
		for rq := range reqs {
			wire.PutBuf(rq.buf)
		}
	}()

	w := &replyWriter{bw: bw, max: s.maxFrame, enc: wire.GetBuf(), rows: wire.GetBuf(), primary: s.primaryAddr}
	defer wire.PutBuf(w.enc)
	defer wire.PutBuf(w.rows)
	for rq := range reqs {
		if rq.err != nil {
			// EOF and reset are normal disconnects; an oversized frame
			// gets an explanation before the close.
			if errors.Is(rq.err, wire.ErrFrameTooLarge) {
				fail(rq.err.Error())
			}
			return
		}
		var keep bool
		if grant, aerr := s.admit(sess, rq.typ); aerr != nil {
			// Shed: a coded retryable Error frame answers the statement
			// in place of execution; the connection stays usable and the
			// client's backoff absorbs the retry.
			keep = w.writeErrorCoded(wire.ErrCodeOverloaded, aerr.Error())
		} else {
			if grant != nil {
				w.queue = grant.Wait
			}
			keep = s.handleFrame(sess, reg, w, rq.typ, rq.payload)
			if grant != nil {
				grant.Release()
				w.queue = 0
			}
		}
		wire.PutBuf(rq.buf)
		if !keep {
			bw.Flush() // deliver a pending Error explanation, if any
			return
		}
		if len(reqs) == 0 {
			// Reply coalescing: flush only once no further statement is
			// already queued, so a pipelined burst's replies leave in as
			// few syscalls as possible.
			if bw.Flush() != nil {
				return
			}
		}
	}
}

// admit passes one queued frame through the admission controller. A
// nil grant with a nil error means the frame is not gated: no
// controller, a non-statement frame (Prepare and ClosePrepared are
// bookkeeping, not work), or a statement inside an open transaction —
// the transaction was admitted at its first statement and shedding it
// midway would force an abort the client cannot retry statement-wise.
func (s *Server) admit(sess *core.Session, typ byte) (*admission.Grant, error) {
	if s.adm == nil || sess.InTransaction() {
		return nil, nil
	}
	switch typ {
	case wire.TypeExec, wire.TypeExecStream, wire.TypeBindExec, wire.TypeDatalog:
	default:
		return nil, nil
	}
	tenant := ""
	class := admission.ClassInteractive
	maxConc := 0
	if u := sess.User(); u != nil {
		tenant = u.Name
		if u.Priority == catalog.PriorityBatch {
			class = admission.ClassBatch
		}
		maxConc = u.MaxConcurrent
	}
	return s.adm.Acquire(tenant, class, maxConc)
}

// replyWriter writes a connection's reply frames into its buffered
// writer, reusing two buffers across results: rows, which a statement
// encodes a SELECT's output into while it still holds its snapshot, and
// enc, where the Result frame is put together around them.
type replyWriter struct {
	bw      *bufio.Writer
	enc     *[]byte
	rows    *[]byte
	max     int
	queue   time.Duration // admission queue wait of the executing statement
	primary func() string // primary address for redirect errors (may be nil)
}

// writeError queues a statement-level Error frame with no retry
// guidance; execution errors go through writeExecError so the client
// learns whether its transaction may re-run.
func (w *replyWriter) writeError(msg string) bool {
	return w.writeErrorCoded(wire.ErrCodeGeneric, msg)
}

// writeExecError queues an execution error classified for retry. A
// redirect (write on a read replica) names the primary when known.
func (w *replyWriter) writeExecError(err error) bool {
	code := errorCode(err)
	msg := err.Error()
	if code == wire.ErrCodeRedirect && w.primary != nil {
		if addr := w.primary(); addr != "" {
			msg = fmt.Sprintf("%s (primary: %s)", msg, addr)
		}
	}
	return w.writeErrorCoded(code, msg)
}

func (w *replyWriter) writeErrorCoded(code byte, msg string) bool {
	if fpFrameWrite.Eval() != nil {
		return false // injected write failure: reply lost, connection dies
	}
	return wire.WriteFrame(w.bw, wire.TypeError, wire.EncodeError(code, msg)) == nil
}

// writeResult queues a Result frame (or the over-limit Error for it).
func (w *replyWriter) writeResult(res *core.Result) bool {
	if fpFrameWrite.Eval() != nil {
		return false // injected write failure: reply lost, connection dies
	}
	wres := &wire.Result{
		Rel:       res.Rel,
		Rows:      res.Rows,
		Affected:  res.Affected,
		Msg:       res.Msg,
		Plan:      res.Plan,
		SimTime:   res.SimTime,
		WallTime:  res.WallTime,
		QueueTime: w.queue,
	}
	buf := wire.AppendResult((*w.enc)[:0], wres)
	// Both buffers keep what they grew to, short of a size only an outsized
	// result needs: that one is let go with its result.
	*w.enc = wire.KeepBuf(buf)
	if res.Rows != nil {
		*w.rows = wire.KeepBuf(res.Rows.Bytes)
	}
	if len(buf)+1 > w.max {
		// The result itself exceeds the frame limit; tell the client
		// rather than shipping a frame it must refuse.
		return w.writeError(fmt.Sprintf("server: result of %d bytes exceeds frame limit %d", len(buf), w.max))
	}
	return wire.WriteFrame(w.bw, wire.TypeResult, buf) == nil
}

// handleFrame executes one queued frame and writes its reply frames
// (unflushed). It returns false when the connection must close: a
// protocol violation (after writing its Error explanation) or a
// transport failure.
func (s *Server) handleFrame(sess *core.Session, reg *stmtRegistry, w *replyWriter, typ byte, payload []byte) bool {
	switch typ {
	case wire.TypeExec, wire.TypeExecStream, wire.TypeDatalog, wire.TypePrepare, wire.TypeBindExec:
		// The handshake binds a user only once users exist, so a connection
		// opened before the first CREATE USER is bound to nobody. From then
		// on it runs nothing, as the handshake would now refuse it.
		if sess.User() == nil && s.eng.Catalog().HasUsers() {
			return w.writeErrorCoded(wire.ErrCodeAuth, "server: authentication required")
		}
	}
	var res *core.Result
	var execErr error
	switch typ {
	case wire.TypeExec:
		res, execErr = sess.ExecTo(*w.rows, string(payload))
	case wire.TypeExecStream:
		chunkRows, chunkBytes, sql, derr := wire.DecodeExecStream(payload)
		if derr != nil {
			// A malformed frame is a protocol violation.
			w.writeError(derr.Error())
			return false
		}
		cur, sres, err := sess.Stream(sql)
		if err != nil {
			execErr = err
			break
		}
		if cur == nil {
			// DDL / DML / transaction control: a plain Result frame,
			// exactly as TypeExec would answer.
			res = sres
			break
		}
		return s.streamResult(w.bw, cur, chunkRows, chunkBytes)
	case wire.TypeDatalog:
		r, err := s.eng.DatalogQuery(sess, string(payload))
		if err != nil {
			execErr = err
		} else {
			res = &core.Result{Rel: r}
		}
	case wire.TypePrepare:
		ps, err := sess.Prepare(string(payload))
		if err != nil {
			execErr = err
			break
		}
		id := reg.add(ps)
		return wire.WriteFrame(w.bw, wire.TypePrepareOK, wire.EncodePrepareOK(id, ps.NumParams())) == nil
	case wire.TypeBindExec:
		id, args, err := wire.DecodeBindExec(payload)
		if err != nil {
			// A malformed frame is a protocol violation.
			w.writeError(err.Error())
			return false
		}
		ps := reg.get(id)
		if ps == nil {
			// A stale id is a statement error, not a protocol one:
			// the client may have raced an eviction or reused a
			// closed handle, and the connection stays usable.
			execErr = fmt.Errorf("server: unknown or closed prepared statement id %d", id)
			break
		}
		res, execErr = sess.ExecPreparedTo(*w.rows, ps, args)
	case wire.TypeClosePrepared:
		id, err := wire.DecodeClosePrepared(payload)
		if err != nil {
			w.writeError(err.Error())
			return false
		}
		if reg.close(id) {
			res = &core.Result{Msg: fmt.Sprintf("statement %d closed", id)}
		} else {
			execErr = fmt.Errorf("server: unknown or closed prepared statement id %d", id)
		}
	case wire.TypeReplSubscribe:
		// The connection becomes a replication stream for the rest of
		// its life; Serve blocks until the subscriber detaches.
		if s.source == nil {
			w.writeError("server: this endpoint does not serve replication")
			return false
		}
		// The stream carries every table's catalog and log records, so
		// once users exist only an administrator may subscribe.
		if s.eng.Catalog().HasUsers() {
			if u := sess.User(); u == nil || !u.Admin {
				w.writeErrorCoded(wire.ErrCodeAuth, "server: replication requires an administrator")
				return false
			}
		}
		if err := s.source.Serve(w.bw, payload); err != nil {
			s.logf("server: replication subscriber: %v", err)
		}
		return false
	case wire.TypeHello:
		w.writeError("server: duplicate Hello")
		return false
	default:
		w.writeError(fmt.Sprintf("server: unknown frame type 0x%02x", typ))
		return false
	}
	if execErr != nil {
		return w.writeExecError(execErr)
	}
	return w.writeResult(res)
}

// streamResult drains one cursor onto the wire as ResultHead, RowChunk
// frames within the row/byte budgets, and a closing ResultEnd. It
// returns false when the connection is no longer usable (transport
// failure — the caller closes, and the deferred cursor close releases
// the stream's snapshot pin so it never outlives the connection).
// Execution errors mid-stream are statement-level: an Error frame
// terminates the stream in place of ResultEnd and the connection stays
// usable.
func (s *Server) streamResult(bw *bufio.Writer, cur *core.Cursor, chunkRows, chunkBytes int) (ok bool) {
	defer cur.Close()
	if chunkRows <= 0 {
		chunkRows = wire.DefaultChunkRows
	}
	if chunkBytes <= 0 {
		chunkBytes = wire.DefaultChunkBytes
	}
	// Keep every chunk frame under the server's own frame limit, with
	// headroom for the frame header and one tuple of overshoot.
	if lim := s.maxFrame / 2; chunkBytes > lim {
		chunkBytes = lim
	}
	// The head is written but not flushed: for the common small result
	// (one batch, one chunk) the whole head/chunk/end sequence leaves in
	// a single syscall, costing streaming nothing over a Result frame.
	// Larger streams flush every full chunk, and flush the pending
	// partial chunk whenever another batch is known to be coming — the
	// client reads tuples while the server keeps draining the cursor.
	head := wire.EncodeResultHead(&wire.ResultHead{Plan: cur.Plan(), Schema: cur.Schema()})
	if wire.WriteFrame(bw, wire.TypeResultHead, head) != nil {
		return false
	}
	failStmt := func(code byte, msg string) bool {
		// Error-at-any-point semantics: the Error frame replaces further
		// chunks and the ResultEnd.
		return wire.WriteFrame(bw, wire.TypeError, wire.EncodeError(code, msg)) == nil && bw.Flush() == nil
	}
	// Start small: a point query must not pay a chunk-budget-sized
	// allocation (zeroed by the runtime, then GC-scanned); append grows
	// the buffer toward the budget only for results that need it.
	chunk := make([]byte, 4, 512)
	n := 0
	emitChunk := func() bool {
		if n == 0 {
			return true
		}
		binary.BigEndian.PutUint32(chunk[:4], uint32(n))
		if wire.WriteFrame(bw, wire.TypeRowChunk, chunk) != nil {
			return false
		}
		chunk = chunk[:4]
		n = 0
		return true
	}
	// Each row is encoded where it will leave from, the end of the chunk,
	// out of the form the executor holds the batch in; only a row that turns
	// out to open the next chunk is moved.
	rows, err := cur.Advance()
	for err == nil && rows > 0 {
		for i := 0; i < rows; i++ {
			at := len(chunk)
			chunk = cur.AppendRows(chunk, i, i+1)
			if size := len(chunk) - at; size+5 > s.maxFrame {
				return failStmt(wire.ErrCodeGeneric, fmt.Sprintf("server: tuple of %d bytes exceeds frame limit %d", size, s.maxFrame))
			}
			// Flush before the row would push the chunk past the byte
			// budget: a chunk never exceeds the client's request except
			// when a single tuple alone does.
			if n > 0 && len(chunk)-4 > chunkBytes {
				row := chunk[at:]
				chunk = chunk[:at]
				if !emitChunk() || bw.Flush() != nil {
					return false
				}
				chunk = append(chunk, row...)
			}
			n++
			if n >= chunkRows || len(chunk)-4 >= chunkBytes {
				if !emitChunk() || bw.Flush() != nil {
					return false
				}
			}
		}
		var next int
		next, err = cur.Advance()
		if next > 0 && (n > 0 || bw.Buffered() > 0) {
			// More batches coming: ship everything pending now.
			if !emitChunk() || bw.Flush() != nil {
				return false
			}
		}
		rows = next
	}
	if err != nil {
		return failStmt(errorCode(err), err.Error())
	}
	if !emitChunk() {
		return false
	}
	end := wire.EncodeResultEnd(&wire.ResultEnd{Rows: cur.Rows(), SimTime: cur.SimTime(), WallTime: cur.WallTime()})
	return wire.WriteFrame(bw, wire.TypeResultEnd, end) == nil && bw.Flush() == nil
}
