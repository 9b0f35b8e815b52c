package client

import (
	"fmt"

	"repro/internal/value"
	"repro/internal/wire"
)

// Rows iterates a streamed result. The usual loop:
//
//	rows, err := c.QueryStream(sql)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    var id int64
//	    var name string
//	    if err := rows.Scan(&id, &name); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// The first tuple is available as soon as the server ships its first
// chunk — time-to-first-tuple instead of time-to-last-tuple — and no
// frame ever has to hold the whole relation, so results larger than the
// frame limit stream through fine.
//
// While a Rows is open it owns the connection (the protocol is strictly
// sequential); other statements on the same Client block until the
// stream ends or Close is called. Close before exhaustion drains the
// remaining frames so the connection stays usable. A Rows is not safe
// for concurrent use.
type Rows struct {
	c        *Client
	head     *wire.ResultHead
	res      *wire.Result // non-relation outcome (DDL/DML via streaming)
	end      *wire.ResultEnd
	batch    []value.Tuple
	i        int
	cur      value.Tuple
	err      error
	done     bool // no more frames belong to this stream
	released bool // the connection mutex has been handed back
	closed   bool
}

// QueryStream executes one SQL statement with chunked result delivery.
// For a relation-producing statement the returned Rows yields tuples as
// chunks arrive; for anything else (DDL, DML, transaction control) the
// Rows is already exhausted and Result returns the outcome. A
// statement-level error arrives as a *ServerError, with the connection
// still usable.
func (c *Client) QueryStream(sql string) (*Rows, error) {
	c.mu.Lock()
	if err := c.brokenErr(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	fail := func(err error) error {
		c.setBroken(err)
		c.mu.Unlock()
		return err
	}
	payload := wire.EncodeExecStream(c.chunkRows, c.chunkBytes, sql)
	if err := wire.WriteFrame(c.bw, wire.TypeExecStream, payload); err != nil {
		return nil, fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return nil, fail(err)
	}
	typ, rp, err := c.readFrameLocked()
	if err != nil {
		return nil, fail(err)
	}
	switch typ {
	case wire.TypeResultHead:
		h, err := wire.DecodeResultHead(rp)
		if err != nil {
			return nil, fail(err)
		}
		// The mutex stays held until the stream ends: the connection
		// belongs to this Rows.
		return &Rows{c: c, head: h}, nil
	case wire.TypeResult:
		res, err := wire.DecodeResult(rp)
		if err != nil {
			return nil, fail(err)
		}
		c.mu.Unlock()
		return &Rows{c: c, res: res, done: true, released: true}, nil
	case wire.TypeError:
		c.mu.Unlock()
		return nil, c.serverError(rp)
	default:
		return nil, fail(fmt.Errorf("client: unexpected frame type 0x%02x", typ))
	}
}

// Next advances to the next tuple, reading further chunks off the wire
// as needed. It returns false at end of stream or on error (check Err).
func (r *Rows) Next() bool {
	for {
		if r.i < len(r.batch) {
			r.cur = r.batch[r.i]
			r.i++
			return true
		}
		if r.done || r.closed {
			return false
		}
		if !r.readStreamFrame(true) {
			return false
		}
	}
}

// readStreamFrame consumes one frame of the open stream, keeping the
// batch when keep is set (Close drains with keep=false). It returns
// false once no more frames belong to the stream.
func (r *Rows) readStreamFrame(keep bool) bool {
	typ, payload, err := r.c.readFrameLocked()
	if err != nil {
		r.finishBroken(err)
		return false
	}
	switch typ {
	case wire.TypeRowChunk:
		tuples, err := wire.DecodeRowChunk(payload, r.head.Schema)
		if err != nil {
			r.finishBroken(err)
			return false
		}
		if keep {
			r.batch, r.i = tuples, 0
		}
		return true
	case wire.TypeResultEnd:
		end, err := wire.DecodeResultEnd(payload)
		if err != nil {
			r.finishBroken(err)
			return false
		}
		r.end = end
		r.finish(nil)
		return false
	case wire.TypeError:
		// Error-at-any-point: the server reported a statement-level
		// failure mid-stream; the connection stays usable.
		r.finish(r.c.serverError(payload))
		return false
	default:
		r.finishBroken(fmt.Errorf("client: unexpected frame type 0x%02x mid-stream", typ))
		return false
	}
}

// finish ends the stream and hands the connection back.
func (r *Rows) finish(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
	r.done = true
	if !r.released {
		r.released = true
		r.c.mu.Unlock()
	}
}

// finishBroken ends the stream after a transport or protocol failure
// that leaves the connection unusable.
func (r *Rows) finishBroken(err error) {
	r.c.setBroken(err)
	r.finish(err)
}

// Tuple returns the current tuple (valid after Next returned true). The
// tuple is owned by the Rows until the next call to Next.
func (r *Rows) Tuple() value.Tuple { return r.cur }

// Scan copies the current tuple into dests: *int, *int64, *float64,
// *string, *bool, *value.Value or *any, one per column.
func (r *Rows) Scan(dests ...any) error {
	if r.cur == nil {
		return fmt.Errorf("client: Scan called without a successful Next")
	}
	if len(dests) != len(r.cur) {
		return fmt.Errorf("client: Scan wants %d destinations, got %d", len(r.cur), len(dests))
	}
	for i, d := range dests {
		v := r.cur[i]
		switch p := d.(type) {
		case *value.Value:
			*p = v
		case *any:
			switch v.Kind() {
			case value.KindNull:
				*p = nil
			case value.KindBool:
				*p = v.Bool()
			case value.KindInt:
				*p = v.Int()
			case value.KindFloat:
				*p = v.Float()
			case value.KindString:
				*p = v.Str()
			}
		case *int64:
			if v.Kind() != value.KindInt {
				return fmt.Errorf("client: column %d is %s, not INT", i, v.Kind())
			}
			*p = v.Int()
		case *int:
			if v.Kind() != value.KindInt {
				return fmt.Errorf("client: column %d is %s, not INT", i, v.Kind())
			}
			*p = int(v.Int())
		case *float64:
			if v.Kind() != value.KindFloat && v.Kind() != value.KindInt {
				return fmt.Errorf("client: column %d is %s, not FLOAT", i, v.Kind())
			}
			*p = v.Float()
		case *string:
			if v.Kind() != value.KindString {
				return fmt.Errorf("client: column %d is %s, not VARCHAR", i, v.Kind())
			}
			*p = v.Str()
		case *bool:
			if v.Kind() != value.KindBool {
				return fmt.Errorf("client: column %d is %s, not BOOL", i, v.Kind())
			}
			*p = v.Bool()
		default:
			return fmt.Errorf("client: cannot Scan into %T (column %d)", d, i)
		}
	}
	return nil
}

// Err returns the error that terminated iteration, if any. Exhausting
// the stream or closing early is not an error.
func (r *Rows) Err() error { return r.err }

// Schema returns the result schema, or nil when the statement produced
// no relation.
func (r *Rows) Schema() *value.Schema {
	if r.head == nil {
		return nil
	}
	return r.head.Schema
}

// Plan returns the optimized logical plan, when known.
func (r *Rows) Plan() string {
	if r.head == nil {
		return ""
	}
	return r.head.Plan
}

// End returns the stream's closing frame (total rows, timings), or nil
// if the stream has not completed normally.
func (r *Rows) End() *wire.ResultEnd { return r.end }

// Result returns the materialized outcome when the statement produced
// no relation (DDL, DML, transaction control), else nil.
func (r *Rows) Result() *wire.Result { return r.res }

// Close ends iteration. If the stream is still open the remaining
// frames are drained so the connection stays usable for the next
// statement. Close is idempotent and safe after errors.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.batch, r.i = nil, 0
	for !r.done {
		r.readStreamFrame(false)
	}
	return nil
}
