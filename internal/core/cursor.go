package core

import (
	"time"

	"repro/internal/plan"
	"repro/internal/value"
)

// Cursor drains one SELECT's result incrementally, a batch of tuples at
// a time, instead of materializing the whole relation at the
// coordinator. It is the executor's own plan, taken one output slot at a
// time: a pipeline of Select / Project / Limit over a Scan reads one
// fragment per batch (the kernels run where the fragment lives), so the
// first fragment's tuples reach the consumer before the later fragments
// are read; other roots (joins, aggregates, sorts) have done their work
// by the time the cursor opens and stream one batch per output slot.
//
// The cursor reads a snapshot pinned when it opened: the stream observes
// one consistent version of the database for its whole lifetime, no locks
// are held, and concurrent writers are never blocked by (nor block) the
// stream. The pin — which only holds back version garbage collection — is
// released when the cursor is exhausted or closed. Inside an explicit
// transaction the pin is the transaction's, so COMMIT/ROLLBACK close the
// cursor: the column-cache rows its batches select from are kept only by
// that pin.
//
// A Cursor is not safe for concurrent use, mirroring the Session that
// produced it.
type Cursor struct {
	s        *Session
	ctx      *execCtx
	release  func() // from readView: releases the snapshot pin
	schema   *value.Schema
	planStr  string
	parts    *parts // the plan's output; slot `taken` is the next to deliver
	taken    int
	cur      slot // the slot Advance moved to, until the next one is pulled
	done     bool
	err      error
	rows     int64
	start    stmtClock
	simTime  time.Duration
	wallTime time.Duration
}

// Schema returns the result schema (known before the first tuple).
func (c *Cursor) Schema() *value.Schema { return c.schema }

// Plan returns the optimized logical plan being streamed.
func (c *Cursor) Plan() string { return c.planStr }

// Rows returns the number of tuples delivered so far.
func (c *Cursor) Rows() int64 { return c.rows }

// SimTime returns the simulated execution time; valid once the cursor
// has finished (Next returned nil or Close was called).
func (c *Cursor) SimTime() time.Duration { return c.simTime }

// WallTime returns the real execution time; valid once the cursor has
// finished.
func (c *Cursor) WallTime() time.Duration { return c.wallTime }

// Next returns the next non-empty batch of the result as tuples, or (nil,
// nil) once the stream is exhausted (at which point its snapshot is
// released). Any error poisons the cursor.
func (c *Cursor) Next() (*value.Relation, error) {
	if n, err := c.Advance(); n == 0 {
		return nil, err
	}
	rel := c.cur.batch().Materialize()
	c.cur.free()
	c.cur = slot{}
	return rel, nil
}

// Advance moves to the next non-empty batch of the result and returns its
// row count, or 0 once the stream is exhausted or has failed, with Next's
// side effects and errors. It is Next for a consumer that would only
// serialize the tuples: AppendRows encodes the batch it moved to from the
// form the executor holds it in, valid until the next Advance or Close.
func (c *Cursor) Advance() (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	if c.done {
		return 0, nil
	}
	if err := c.pull(); err != nil {
		c.err = err
		c.finish()
		return 0, err
	}
	n := c.cur.len()
	if n == 0 {
		c.finish()
		return 0, nil
	}
	c.rows += int64(n)
	return n, nil
}

// AppendRows appends rows [lo, hi) of the batch Advance moved to onto dst
// in the wire's tuple encoding.
func (c *Cursor) AppendRows(dst []byte, lo, hi int) []byte {
	return c.cur.appendRows(dst, lo, hi)
}

// pull makes the next non-empty slot the current one, or an empty one at
// the end of the stream. Delivery is the gather, one slot at a time: the
// slot is taken, crosses the network to the coordinator and is charged to
// the tenant's budget like any other materialization — a breach ends the
// stream with the batch that caused it.
func (c *Cursor) pull() error {
	c.cur.free()
	c.cur = slot{}
	for c.taken < len(c.parts.pes) {
		i := c.taken
		c.taken++
		s, err := c.parts.take(i)
		if err != nil {
			return err
		}
		if s.len() == 0 {
			s.free()
			continue
		}
		size := s.size()
		c.ctx.ship(c.parts.pes[i], c.s.pe, size)
		c.cur = s
		return c.ctx.mem.charge(int64(size))
	}
	return c.ctx.mem.breach()
}

// Close releases the cursor and its snapshot; after exhaustion it is a
// no-op. Close is idempotent.
func (c *Cursor) Close() error {
	c.finish()
	return nil
}

// finish ends the stream exactly once: hands back the arena, releases the
// snapshot pin and stamps the timings.
func (c *Cursor) finish() {
	if c.done {
		return
	}
	c.done = true
	c.ctx.arena.Release() // slots not pulled are dropped with it
	c.s.unregisterCursor(c)
	c.release()
	c.simTime = c.s.e.m.MaxClock() - c.start.sim
	c.wallTime = time.Since(c.start.wall)
}

// Stream executes one SQL statement, returning a Cursor when the
// statement produces a relation from a SELECT plan and a materialized
// Result otherwise: everything but the way a SELECT plan runs is Exec's
// own routing (the plan cache, the parser, the grant check), so a
// statement means the same through either.
// Exactly one of the two returns is non-nil on success.
func (s *Session) Stream(sql string) (*Cursor, *Result, error) {
	start := s.startClock()
	r, err := s.routeText(sql)
	if err == nil && r.sel != nil {
		cur, err := s.streamPlanStr(start, r.sel, r.planStr)
		return cur, nil, err
	}
	res, err := s.execRouted(start, r, err, nil)
	return nil, res, err
}

// streamPlanStr opens a cursor over an optimized plan (with its
// pre-rendered format string) at a snapshot pinned here, before the
// cursor is handed back.
func (s *Session) streamPlanStr(start stmtClock, root plan.Node, planStr string) (*Cursor, error) {
	view, release, err := s.readView()
	if err != nil {
		return nil, err
	}
	ctx := s.newExecCtx(view)
	p, err := s.e.exec(ctx, root, value.AllCols)
	if err != nil {
		ctx.arena.Release()
		release()
		return nil, err
	}
	cur := &Cursor{
		s:       s,
		ctx:     ctx,
		release: release,
		schema:  root.Schema(),
		planStr: planStr,
		parts:   p,
		start:   start,
	}
	s.registerCursor(cur)
	return cur, nil
}
