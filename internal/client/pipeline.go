package client

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/wire"
)

// PipeResult is one pipelined statement's outcome: a Result or a
// statement-level error. Transport failures are not per-statement —
// they surface as the error return of Run and break the connection.
type PipeResult struct {
	Res *wire.Result
	Err error
}

// Pipeline queues statements client-side and ships them without
// awaiting intermediate replies: Run writes every queued frame in one
// syscall, then reads all replies in order. One statement's error
// fails that statement only (its PipeResult carries it); the rest of
// the pipeline still executes and the connection stays usable.
//
// Transaction semantics mid-pipeline: a statement error does not
// implicitly roll back an open transaction. If an error *aborts* the
// transaction (a deadlock victim), every later statement in that
// transaction answers "transaction is aborted; ROLLBACK to continue"
// until a ROLLBACK arrives — which may itself be queued later in the
// same pipeline, since ROLLBACK on an aborted transaction succeeds.
//
// A Pipeline is not safe for concurrent use. After Run it is empty and
// may be reused.
type Pipeline struct {
	c   *Client
	buf bytes.Buffer // queued frames, back to back
	n   int
	err error // first queueing failure, reported by Run
}

// Pipeline starts an empty statement pipeline on this connection.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Exec queues one SQL statement.
func (p *Pipeline) Exec(sql string) {
	wire.WriteFrame(&p.buf, wire.TypeExec, []byte(sql))
	p.n++
}

// ExecPrepared queues one execution of a prepared statement. Argument
// conversion failures are reported by Run.
func (p *Pipeline) ExecPrepared(s *Stmt, args ...any) {
	vals, err := toValues(args)
	if err == nil && len(vals) > wire.MaxBindArgs {
		err = fmt.Errorf("client: %d arguments exceed the %d parameter limit", len(args), wire.MaxBindArgs)
	}
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		return
	}
	wire.WriteFrame(&p.buf, wire.TypeBindExec, wire.EncodeBindExec(s.id, vals))
	p.n++
}

// Len reports how many statements are queued.
func (p *Pipeline) Len() int { return p.n }

// Run ships the queued statements and collects one PipeResult per
// statement, in order. The returned error is nil unless queueing or
// the transport failed; per-statement errors live in the results. On
// return the pipeline is empty and reusable.
func (p *Pipeline) Run() ([]PipeResult, error) {
	if p.err != nil {
		err := p.err
		p.buf.Reset()
		p.n, p.err = 0, nil
		return nil, err
	}
	n := p.n
	frames := p.buf.Bytes()
	results, err := p.c.sendAndCollect(frames, n)
	p.buf.Reset()
	p.n = 0
	return results, err
}

// sendAndCollect writes pre-framed bytes and reads n Result/Error
// replies, holding the statement mutex across the whole exchange. The
// write happens on its own goroutine so replies are drained while
// later frames are still leaving: a window large enough to overflow
// the kernel buffers on both sides would otherwise deadlock (server
// blocked writing replies nobody reads, client blocked writing frames
// nobody reads).
func (c *Client) sendAndCollect(frames []byte, n int) ([]PipeResult, error) {
	if n == 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.brokenErr(); err != nil {
		return nil, err
	}
	fail := func(err error) ([]PipeResult, error) {
		c.setBroken(err)
		return nil, err
	}
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		_, err := c.bw.Write(frames)
		if err == nil {
			err = c.bw.Flush()
		}
		if err != nil {
			// Marking the connection broken closes the socket, so the
			// reads below fail instead of hanging on frames never sent.
			c.setBroken(err)
		}
	}()
	defer func() { <-wrote }()
	results := make([]PipeResult, 0, n)
	for i := 0; i < n; i++ {
		typ, payload, err := c.readFrameLocked()
		if err != nil {
			return fail(err)
		}
		switch typ {
		case wire.TypeResult:
			res, err := wire.DecodeResult(payload)
			if err != nil {
				return nil, c.breakConn(err)
			}
			results = append(results, PipeResult{Res: res})
		case wire.TypeError:
			err := c.serverError(payload)
			var se *ServerError
			if !errors.As(err, &se) {
				return nil, err
			}
			results = append(results, PipeResult{Err: se})
		default:
			return nil, c.breakConn(fmt.Errorf("client: unexpected frame type 0x%02x in pipeline reply %d", typ, i))
		}
	}
	return results, nil
}
