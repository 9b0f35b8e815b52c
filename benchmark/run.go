package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// runConfig sizes one run of one workload.
type runConfig struct {
	sz      sizes
	seed    int64
	warm    time.Duration
	window  time.Duration // the timed, untraced window
	traced  time.Duration // the traced window; 0 runs none
	setups  int           // set-ups timed; setup_s is their median
	tail    int           // acknowledged writes between checkpoint and crash
	batches int           // batches per layer probe; the median batch is reported
	replay  int           // statements a replay probe draws from the generator
	traceTo string        // directory the traced run writes its spans to
	log     io.Writer
}

// instance is one workload set up and ready to drive.
type instance struct {
	*served
	w     *workload
	x     *expected
	rows  int
	conns []*conn
	// ledger is the sum of deltas acknowledged outside the connections
	// (the reference script); initial is SUM(acct.balance) as loaded.
	ledger, initial int64
	// sim is the reference script's simulated cost, read on the freshly
	// loaded engine so it is identical on every run.
	sim simCost
}

type simCost struct {
	response, peWork time.Duration
	netBytes         int64
	stmts            int
}

// setUp builds the engine, loads the tables, starts the server, dials
// and prepares on every connection, and runs the verification pass.
func setUp(w *workload, sz sizes) (*instance, error) {
	s, err := serve()
	if err != nil {
		return nil, err
	}
	in := &instance{served: s, w: w, x: newExpected(sz)}
	if in.rows, err = w.build(s.eng, sz); err != nil {
		in.close()
		return nil, fmt.Errorf("%s: load: %w", w.name, err)
	}
	for i := 0; i < numConns; i++ {
		c, err := dial(s.addr, w, in.x)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("%s: dial: %w", w.name, err)
		}
		in.conns = append(in.conns, c)
	}
	if w.ledger {
		for i := 0; i < sz.acct; i++ {
			in.initial += acctBalance(i)
		}
	}
	if err := in.verify(sz); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *instance) close() {
	for _, c := range in.conns {
		c.cl.Close()
	}
	in.served.close()
}

// verify is the correctness gate before any window: the EXPLAIN gates,
// then the reference script twice on one in-process session, every reply
// compared with what the arithmetic data implies. The first pass warms
// plan and column caches; the second is where the simulated clock is
// read, with the machine's clocks reset before each statement.
func (in *instance) verify(sz sizes) error {
	s := in.eng.NewSession()
	defer s.Close()
	for _, sql := range in.w.vectorized {
		if err := explainHas(s, sql, "execution: vectorized"); err != nil {
			return err
		}
	}
	for _, sql := range in.w.probe {
		if err := explainHas(s, sql, "IndexProbe"); err != nil {
			return err
		}
	}
	ps, err := prepareAll(s, in.w)
	if err != nil {
		return err
	}
	script := in.w.reference(sz)
	m := in.eng.Machine()
	for pass := 0; pass < 2; pass++ {
		in.sim = simCost{}
		for i := range script {
			o := &script[i]
			var net0 int64
			err := runSession(s, ps, in.w, in.x, o,
				func() { m.ResetClocks(); net0 = m.NetBytes() },
				func(r *core.Result) {
					in.sim.response += r.SimTime
					in.sim.peWork += m.TotalClock()
					in.sim.netBytes += m.NetBytes() - net0
					in.sim.stmts++
				})
			if err != nil {
				return fmt.Errorf("verification: %w", err)
			}
			in.ledger += o.delta
		}
	}
	return nil
}

func explainHas(s *core.Session, sql, want string) error {
	rel, err := s.Query("EXPLAIN " + sql)
	if err != nil {
		return fmt.Errorf("EXPLAIN %s: %w", sql, err)
	}
	var plan strings.Builder
	for _, t := range rel.Tuples {
		plan.WriteString(t[0].Str())
		plan.WriteByte('\n')
	}
	if !strings.Contains(plan.String(), want) {
		return fmt.Errorf("plan of %q lacks %q:\n%s", sql, want, plan.String())
	}
	return nil
}

// audit checks the ledger after the windows: the row count is what was
// loaded (no private INSERT key left behind) and SUM(balance) is the
// initial sum plus the deltas of acknowledged operations; transfers net
// zero.
func (in *instance) audit() error {
	if !in.w.ledger {
		return nil
	}
	s := in.eng.NewSession()
	defer s.Close()
	rel, err := s.Query(`SELECT COUNT(*) AS n, SUM(balance) AS total FROM acct`)
	if err != nil {
		return fmt.Errorf("ledger audit: %w", err)
	}
	want := in.initial + in.ledger
	for _, c := range in.conns {
		want += c.ledger
	}
	if n, total := rel.Tuples[0][0].Int(), rel.Tuples[0][1].Int(); n != int64(in.x.sz.acct) || total != want {
		return fmt.Errorf("ledger audit: %d rows summing to %d, want %d rows summing to %d", n, total, in.x.sz.acct, want)
	}
	return nil
}

// gens returns fresh generators: every window of a run replays the same
// seed-drawn operations.
func (in *instance) gens(cfg *runConfig) []func() op {
	gs := make([]func() op, len(in.conns))
	for i := range gs {
		gs[i] = in.w.newGen(i, cfg.seed, cfg.sz)
	}
	return gs
}

// counts sums the connections' operation accounting.
func (in *instance) counts() (attempts, refused, failed int64) {
	for _, c := range in.conns {
		attempts += c.attempts
		refused += c.refused
		failed += c.failed
	}
	return
}

// outcome is one run of one workload.
type outcome struct {
	m         metrics
	attempted int64 // operations completed or abandoned in the timed windows
	failed    int64 // operations abandoned after maxAttempts refusals
	refusals  map[string]int64
}

// runWorkload sets the workload up, drives the timed window, and — when
// cfg.traced is set — a traced window and the layer probes.
func runWorkload(w *workload, cfg *runConfig) (*outcome, error) {
	m := metrics{}
	// setup_s is the median of cfg.setups set-ups, half of them before the
	// windows and half after, so that one disturbance of the host does not
	// cover them all.
	var setups []float64
	var in *instance
	defer func() {
		if in != nil {
			in.close()
		}
	}()
	setUpAgain := func() (err error) {
		if in != nil {
			in.close()
		}
		// Collect the previous instance now, so that its garbage is not
		// billed to this set-up.
		runtime.GC()
		start := time.Now()
		in, err = setUp(w, cfg.sz)
		setups = append(setups, time.Since(start).Seconds())
		return err
	}
	for len(setups) < (cfg.setups+1)/2 {
		if err := setUpAgain(); err != nil {
			return nil, err
		}
	}

	if _, err := drive(in.conns, in.gens(cfg), cfg.warm, nil); err != nil {
		return nil, err
	}
	a0, r0, f0 := in.counts()
	logBefore, err := in.eng.LogBytes(w.written)
	if err != nil {
		return nil, err
	}
	commitsBefore := in.eng.Txns().Commits()
	before := readProcess()
	win, err := drive(in.conns, in.gens(cfg), cfg.window, nil)
	if err != nil {
		return nil, err
	}
	after := readProcess()
	resident := in.residentBytes()
	logAfter, err := in.eng.LogBytes(w.written)
	if err != nil {
		return nil, err
	}
	commits := in.eng.Txns().Commits() - commitsBefore

	ops := float64(len(win.samples))
	if ops == 0 {
		return nil, fmt.Errorf("%s: the timed window completed no operation", w.name)
	}
	rtts := win.rtts(nil)
	m["stmts_per_s"], m["p50_us"] = win.quiet()
	m["window.mean_stmts_per_s"] = ops / cfg.window.Seconds()
	m["window.p50_us"] = micros(percentile(rtts, 0.50))
	m["client.rtt_p99_us"] = micros(percentile(rtts, 0.99))
	m["samples"] = ops
	m["resident_bytes_per_row"] = float64(resident) / float64(in.rows)
	m["process.allocs_per_stmt"] = float64(after.mallocs-before.mallocs) / ops
	m["process.cpu_ms_per_kstmt"] = (after.cpu - before.cpu).Seconds() * 1e3 / (ops / 1e3)
	m["process.gc_pause_ms"] = float64(after.gcPause-before.gcPause) / 1e6
	if commits > 0 {
		m["wal.bytes_per_commit"] = float64(logAfter-logBefore) / float64(commits)
	} else {
		m["wal.bytes_per_commit"] = 0
	}
	m["machine.sim_response_ms"] = float64(in.sim.response) / 1e6
	m["machine.sim_pe_work_ms"] = float64(in.sim.peWork) / 1e6
	m["machine.net_bytes_per_stmt"] = float64(in.sim.netBytes) / float64(in.sim.stmts)

	if cfg.traced > 0 {
		if err := tracedRun(in, cfg, m); err != nil {
			return nil, err
		}
	}
	a1, r1, f1 := in.counts()
	m["client.fail_share"] = float64(r1-r0) / float64(a1-a0)
	if err := in.audit(); err != nil {
		return nil, err
	}
	m["wal.checkpoint_ms"], m["wal.recover_ms"] = 0, 0
	if w.ledger {
		if err := durability(in, cfg, m); err != nil {
			return nil, err
		}
	}
	out := &outcome{m: m, failed: f1 - f0, refusals: map[string]int64{}}
	for _, c := range in.conns {
		for msg, n := range c.refusals {
			out.refusals[msg] += n
		}
	}
	// Every attempt either completed an operation or was refused; the
	// operations are the attempts less the re-runs.
	out.attempted = (a1 - a0) - (r1 - r0) + out.failed
	for len(setups) < cfg.setups {
		if err := setUpAgain(); err != nil {
			return nil, err
		}
	}
	m["setup_s"] = median(setups)
	return out, nil
}

// durability is the phase after the oltp_mix windows: checkpoint, a
// bounded tail of acknowledged writes, crash, recovery, and the ledger
// audit again on what recovery rebuilt from stable storage alone.
func durability(in *instance, cfg *runConfig, m metrics) error {
	start := time.Now()
	if err := in.eng.CheckpointTable("acct"); err != nil {
		return fmt.Errorf("durability: checkpoint: %w", err)
	}
	m["wal.checkpoint_ms"] = float64(time.Since(start)) / 1e6
	c, r := in.conns[0], connRand(cfg.seed, numConns)
	for i := 0; i < cfg.tail; i++ {
		d := int64(r.Intn(21) - 10)
		o := op{kind: kindUpdate, delta: d, stmts: []stmt{acctUpdate(int64(r.Intn(cfg.sz.acct)), d)}}
		if _, err := c.run(&o); err != nil {
			return fmt.Errorf("durability: tail write: %w", err)
		}
	}
	if err := in.eng.CrashTable("acct"); err != nil {
		return fmt.Errorf("durability: crash: %w", err)
	}
	rep, err := in.eng.RecoverTableReport("acct")
	if err != nil {
		return fmt.Errorf("durability: recover: %w", err)
	}
	if rep.Unresolved != 0 {
		return fmt.Errorf("durability: %d transactions left in doubt", rep.Unresolved)
	}
	m["wal.recover_ms"] = float64(rep.Wall) / 1e6
	m["wal.recover_redo_records"] = float64(rep.Redo)
	if err := in.audit(); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	return nil
}

// process is what the runtime and the kernel account to this process.
type process struct {
	mallocs uint64
	gcPause uint64 // ns
	cpu     time.Duration
}

func readProcess() process {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return process{mallocs: ms.Mallocs, gcPause: ms.PauseTotalNs, cpu: cpu}
}
