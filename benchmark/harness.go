package main

import (
	"errors"
	"fmt"
	"net"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wire"
)

const (
	numPEs      = 64
	numConns    = 2 // closed loop: the host has 2 cores
	maxInFlight = 8
	maxAttempts = 8 // tries per operation before it counts as failed
)

// served is one engine behind one TCP server, assembled the way
// cmd/prisma-serve assembles it: replication source attached with
// semi-synchronous commit wait (no replica subscribes), admission on,
// auth off.
type served struct {
	eng  *core.Engine
	src  *repl.Source
	srv  *server.Server
	adm  *admission.Controller
	addr string
	done chan struct{}
}

func serve() (*served, error) {
	eng, err := core.New(core.Config{NumPEs: numPEs})
	if err != nil {
		return nil, err
	}
	s := &served{eng: eng, done: make(chan struct{})}
	s.src = repl.NewSource(repl.SourceConfig{Engine: eng})
	eng.Txns().SetCommitWait(s.src.WaitShipped)
	s.adm = admission.New(admission.Config{MaxInFlight: maxInFlight})
	s.srv, err = server.New(server.Config{Engine: eng, MaxConns: 64, PipelineDepth: 64,
		Source: s.src, Admission: s.adm})
	if err != nil {
		s.src.Close()
		eng.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.src.Close()
		eng.Close()
		return nil, err
	}
	s.addr = l.Addr().String()
	go func() {
		defer close(s.done)
		s.srv.Serve(l) // returns ErrServerClosed from close
	}()
	return s, nil
}

func (s *served) close() {
	s.srv.Close()
	<-s.done
	s.src.Close()
	s.eng.Close()
}

// residentBytes is Σ PE.MemUsed over the machine.
func (s *served) residentBytes() int64 {
	var n int64
	for _, pe := range s.eng.Machine().PEs() {
		n += pe.MemUsed()
	}
	return n
}

// conn is one closed-loop caller: a TCP connection, its prepared
// statements and its operation generator.
type conn struct {
	w     *workload
	x     *expected
	cl    *client.Client
	stmts []*client.Stmt
	args  []any

	// ledger is the sum of the deltas of acknowledged operations.
	ledger int64
	// attempts counts operation attempts, refused those the server
	// refused with a retryable error (conflict abort, deadlock victim,
	// shed); an operation refused maxAttempts times is failed.
	attempts, refused, failed int64
	// refusals counts the refusals by message, digits blanked.
	refusals map[string]int64
}

func dial(addr string, w *workload, x *expected) (*conn, error) {
	cl, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &conn{w: w, x: x, cl: cl, refusals: map[string]int64{}}
	for _, sql := range w.prepared {
		st, err := cl.Prepare(sql)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("prepare %q: %w", sql, err)
		}
		c.stmts = append(c.stmts, st)
	}
	return c, nil
}

// exec sends one statement and checks its reply.
func (c *conn) exec(st *stmt) (*wire.Result, error) {
	var res *wire.Result
	var err error
	if st.prep >= 0 {
		c.args = c.args[:0]
		for _, v := range st.args {
			c.args = append(c.args, v)
		}
		res, err = c.stmts[st.prep].Exec(c.args...)
	} else {
		res, err = c.cl.Exec(st.text)
	}
	if err != nil {
		return nil, err
	}
	if st.key >= 0 {
		if err := c.w.check(c.x, st, res.Rel, res.Affected); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timing is what the server reports about one operation's statements.
type timing struct {
	wall, queue time.Duration
}

// attempt runs the operation's statements once.
func (c *conn) attempt(o *op) (timing, error) {
	var t timing
	for _, st := range flatten(o) {
		res, err := c.exec(&st)
		if err != nil {
			if o.txn {
				c.cl.Exec("ROLLBACK") // its own failure surfaces on the next statement
			}
			return t, err
		}
		t.wall += res.WallTime
		t.queue += res.QueueTime
	}
	return t, nil
}

// run executes one operation to acknowledgement. When the server refuses
// it with a retryable error it is re-run under the client library's
// retry policy (1 ms backoff, doubling, jittered), as a caller that needs
// the write done would: an immediate re-run of a write-write conflict
// pins the same snapshot again until the winner's commit has moved the
// watermark, and conflicts again.
func (c *conn) run(o *op) (timing, error) {
	var t timing
	err := retry.Do(func() (err error) {
		c.attempts++
		if t, err = c.attempt(o); err != nil && client.IsRetryable(err) {
			c.refused++
			c.refusals[digits.ReplaceAllString(err.Error(), "#")]++
		}
		return err
	})
	switch {
	case err == nil:
		c.ledger += o.delta
		return t, nil
	case client.IsRetryable(err):
		c.failed++
		return t, errAbandoned
	}
	return t, err
}

var retry = client.RetryPolicy{MaxAttempts: maxAttempts}

var digits = regexp.MustCompile(`[0-9]+`)

var errAbandoned = errors.New("operation refused on every attempt")

// sample is one completed operation as the caller saw it.
type sample struct {
	end  time.Duration // completion, from the window's start
	rtt  time.Duration
	kind int
	timing
}

// window is what one measured interval of the closed loop produced.
type window struct {
	dur     time.Duration
	samples []sample // all connections, in completion order per connection
}

// drive runs every connection's generator for dur and returns the
// operations completed inside the interval. The loop records one sample
// per operation and nothing else; a traced run passes one recorder per
// connection, a timed run passes none and executes no recorder code.
func drive(conns []*conn, gens []func() op, dur time.Duration, recs []*recorder) (*window, error) {
	per := make([][]sample, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, gen := conns[i], gens[i]
			for seq := 0; ; seq++ {
				o := gen()
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					return
				}
				t, err := c.run(&o)
				t1 := time.Now()
				if err == errAbandoned {
					continue
				}
				if err != nil {
					errs[i] = fmt.Errorf("%s %s: %w", c.w.name, c.w.kinds[o.kind], err)
					return
				}
				if end := t1.Sub(start); end < dur {
					per[i] = append(per[i], sample{end: end, rtt: t1.Sub(t0), kind: o.kind, timing: t})
					if recs != nil {
						recs[i].roundtrip(stmtID(i, seq), c.w.kinds[o.kind], t0.Sub(start), t1.Sub(t0), t)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	w := &window{dur: dur}
	for _, s := range per {
		w.samples = append(w.samples, s...)
	}
	return w, nil
}

// quietShare is the share of a window's 1-second slices the end-to-end
// figures are read from. The host is a few cores of a shared machine:
// for seconds at a time something else halves what this process gets,
// every latency doubles, and a median over the whole window reports how
// much of the window was disturbed, not what the program does. An
// undisturbed second looks the same on every run, so throughput is read
// at the top tenth of the slices and latency at the bottom tenth. A
// change to the program moves every slice, these with them.
const quietShare = 0.10

// quiet reads the window's 1-second slices: the operations completed
// per second at the (1 - quietShare) quantile of the slices' counts, and
// the median round trip, in microseconds, at the quietShare quantile of
// the slices' medians. The partial last slice is not counted. A window
// under a second long has no slice and reports its mean rate and median.
func (w *window) quiet() (stmtsPerS, p50us float64) {
	per := make([][]time.Duration, int(w.dur/time.Second))
	for _, s := range w.samples {
		if i := int(s.end / time.Second); i < len(per) {
			per[i] = append(per[i], s.rtt)
		}
	}
	if len(per) == 0 {
		return float64(len(w.samples)) / w.dur.Seconds(), micros(percentile(w.rtts(nil), 0.50))
	}
	var counts, medians []float64
	for _, rtts := range per {
		counts = append(counts, float64(len(rtts)))
		if len(rtts) > 0 {
			sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
			medians = append(medians, micros(percentile(rtts, 0.50)))
		}
	}
	return quantile(counts, 1-quietShare), quantile(medians, quietShare)
}

// rtts returns the sorted round-trip times of the samples keep accepts.
func (w *window) rtts(keep func(*sample) bool) []time.Duration {
	var out []time.Duration
	for i := range w.samples {
		if keep == nil || keep(&w.samples[i]) {
			out = append(out, w.samples[i].rtt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile reads the p-quantile from sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.50) }

// quantile reads the p-quantile of xs, interpolating between neighbours.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := p * float64(len(s)-1)
	i := int(at)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (at-float64(i))*(s[i+1]-s[i])
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runSession executes one operation on an in-process session, the way a
// connection would over TCP, checking every reply. before and after, when
// set, run around each statement.
func runSession(s *core.Session, ps []*core.PreparedStmt, w *workload, x *expected, o *op, before func(), after func(*core.Result)) error {
	stmts := flatten(o)
	for i := range stmts {
		st := &stmts[i]
		if before != nil {
			before()
		}
		res, err := execSession(s, ps, st)
		if err != nil {
			return fmt.Errorf("%s %s: %w", w.name, w.kinds[o.kind], err)
		}
		if after != nil {
			after(res)
		}
		if st.key >= 0 {
			if err := w.check(x, st, res.Rel, res.Affected); err != nil {
				return err
			}
		}
	}
	return nil
}

func execSession(s *core.Session, ps []*core.PreparedStmt, st *stmt) (*core.Result, error) {
	if st.prep >= 0 {
		return s.ExecPrepared(ps[st.prep], st.args)
	}
	return s.Exec(st.text)
}

func prepareAll(s *core.Session, w *workload) ([]*core.PreparedStmt, error) {
	ps := make([]*core.PreparedStmt, len(w.prepared))
	for i, sql := range w.prepared {
		p, err := s.Prepare(sql)
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", sql, err)
		}
		ps[i] = p
	}
	return ps, nil
}

// quartiles cuts xs the way Python's statistics.quantiles(xs, n=4) does,
// which is what the driver compares spreads with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
