package experiments

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fragment"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/value"
)

// E18Replication measures WAL-shipping read replicas: a primary under
// a point-UPDATE write load ships its logs to {0,1,2,4} replicas, read
// clients load-balance point SELECTs across the replica set through
// the role-aware cluster client, and the table reports aggregate read
// capacity (simulated busy time of the serving endpoints — the metric
// that scales with machines even on a one-core host), replication lag
// percentiles, and the speedup over the no-replica baseline.
//
// The final row is the audited failover cell: an E17-style ledger
// workload runs against the primary until a deterministic fault
// (ofm.commit.pre, scoped to the primary's fault domain) kills it
// mid-commit; the most-caught-up replica is promoted via PROMOTE, the
// survivor re-points to it, and the audit verifies the ledger sum is
// conserved, every acknowledged commit survived, the recovered old
// primary's stale-epoch stream is fenced off, and a torn replica
// stream earlier in the run resubscribed idempotently.
func E18Replication(quick bool) (*Table, error) {
	rows := 2000
	totalReads := 2000
	readers := 4
	writers := 2
	lagSamples := 40
	numPEs := 16
	replicaPEs := 8
	if quick {
		rows = 500
		totalReads = 600
		readers = 3
		writers = 2
		lagSamples = 10
		numPEs = 8
	}

	t := &Table{
		ID: "E18",
		Title: fmt.Sprintf("WAL-shipping read replicas: %d-row relation, %d readers + %d paced writers, point-SELECT/scan mix vs replica count",
			rows, readers, writers),
		Header: []string{"replicas", "reads", "rd capacity/s", "speedup", "writes", "lag p50", "lag p99", "invariants"},
		Notes: []string{
			"capacity = reads / the most simulated work (busy time, waits on arrivals excluded) any PE of the endpoints serving reads did (replicas when present, else the primary), in a second pass of the reads once the writes have stopped and been replayed: read work only",
			"lag = acknowledged primary commit -> replica replay watermark catches up, sampled by a heartbeat prober; commits are semi-synchronous (acked once shipped to every attached replica)",
			"reads route through the cluster client: replicas round-robin, writes to the primary, redirects re-probe roles",
			"failover row: ledger workload, deterministic crash at ofm.commit.pre in the primary's fault domain, PROMOTE of the most-caught-up replica, survivor re-pointed; audit = sum conserved, acked commits present, torn replica stream resubscribed idempotently, recovered stale primary fenced by epoch",
		},
	}

	var baseline float64
	for _, nr := range []int{0, 1, 2, 4} {
		row, capacity, err := runE18GridCell(nr, rows, totalReads, readers, writers, lagSamples, numPEs, replicaPEs, baseline)
		if err != nil {
			return nil, fmt.Errorf("E18 %d replicas: %w", nr, err)
		}
		if nr == 0 {
			baseline = capacity
		}
		t.Rows = append(t.Rows, row)
	}

	row, err := runE18FailoverCell(replicaPEs, quick)
	if err != nil {
		return nil, fmt.Errorf("E18 failover: %w", err)
	}
	t.Rows = append(t.Rows, row)
	return t, nil
}

// e18Node is one simulated machine: engine, WAL-ship source, TCP
// server, and (on replicas) the subscription to the primary.
type e18Node struct {
	eng  *core.Engine
	src  *repl.Source
	srv  *server.Server
	rep  *repl.Replica
	addr string
	done chan struct{}
}

// e18StartNode boots an engine behind a server on a loopback port. A
// non-empty primary address makes it a replica of that node. Every
// node gets its own fault domain so a crash kills one machine only.
func e18StartNode(numPEs int, primary string) (*e18Node, error) {
	eng, err := core.New(core.Config{NumPEs: numPEs, FaultDomain: &fault.Domain{}})
	if err != nil {
		return nil, err
	}
	src := repl.NewSource(repl.SourceConfig{Engine: eng, PollInterval: 2 * time.Millisecond})
	eng.Txns().SetCommitWait(src.WaitShipped)
	n := &e18Node{eng: eng, src: src, done: make(chan struct{})}
	cfg := server.Config{Engine: eng, MaxConns: 64, Source: src}
	if primary != "" {
		rep, err := repl.StartReplica(repl.ReplicaConfig{Engine: eng, Primary: primary, RetryBackoff: 5 * time.Millisecond})
		if err != nil {
			src.Close()
			eng.Close()
			return nil, err
		}
		n.rep = rep
		cfg.PrimaryAddr = rep.Primary
	}
	srv, err := server.New(cfg)
	if err != nil {
		n.close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}
	n.srv = srv
	n.addr = l.Addr().String()
	go func() { srv.Serve(l); close(n.done) }()
	return n, nil
}

func (n *e18Node) close() {
	if n.rep != nil {
		n.rep.Stop()
	}
	if n.srv != nil {
		n.srv.Close()
		<-n.done
	}
	n.src.Close()
	n.eng.Close()
}

// e18WaitCaughtUp blocks until the replica's replay watermark reaches
// the primary's commit watermark.
func e18WaitCaughtUp(rep *repl.Replica, w uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for rep.Watermark() < w {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica watermark stuck at %d, want %d", rep.Watermark(), w)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// runE18GridCell measures one replica count: write load on the
// primary, reads through the cluster client, lag sampled by a prober.
func runE18GridCell(nr, rows, totalReads, readers, writers, lagSamples, numPEs, replicaPEs int, baseline float64) ([]string, float64, error) {
	primary, err := e18StartNode(numPEs, "")
	if err != nil {
		return nil, 0, err
	}
	defer primary.close()

	schema := value.MustSchema("id", "INT", "balance", "INT")
	if err := primary.eng.CreateTable("acct", schema,
		&fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 4}, []int{0}); err != nil {
		return nil, 0, err
	}
	tuples := make([]value.Tuple, rows)
	for i := range tuples {
		tuples[i] = value.Ints(int64(i), 1000)
	}
	if err := primary.eng.LoadTable("acct", tuples); err != nil {
		return nil, 0, err
	}

	nodes := []*e18Node{primary}
	for i := 0; i < nr; i++ {
		n, err := e18StartNode(replicaPEs, primary.addr)
		if err != nil {
			for _, m := range nodes[1:] {
				m.close()
			}
			return nil, 0, err
		}
		defer n.close()
		nodes = append(nodes, n)
	}
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}

	// A marker commit forces the initial full sync and proves every
	// replica is attached before the measured phase.
	pc, err := client.Dial(primary.addr)
	if err != nil {
		return nil, 0, err
	}
	defer pc.Close()
	if _, err := pc.Exec(`UPDATE acct SET balance = balance + 0 WHERE id = 0`); err != nil {
		return nil, 0, err
	}
	w0 := primary.eng.Txns().Watermark()
	for _, n := range nodes[1:] {
		if err := e18WaitCaughtUp(n.rep, w0, 10*time.Second); err != nil {
			return nil, 0, err
		}
	}

	// Write load: autocommit balance bumps on random keys, running for
	// the whole read phase. Writers pace themselves off read progress —
	// one write per writePerReads completed reads — so the write:read
	// ratio is identical in every cell regardless of replica count or
	// host load. Wall-clock pacing would let a slow host squeeze more
	// writes into a cell's read phase and silently shift the workload.
	const writePerReads = 50
	var stop atomic.Bool
	var writesAcked, readsDone atomic.Int64
	var wg sync.WaitGroup
	workerErr := make(chan error, writers+1)
	for wk := 0; wk < writers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			c, err := client.Dial(primary.addr)
			if err != nil {
				workerErr <- err
				return
			}
			defer c.Close()
			r := rand.New(rand.NewSource(int64(nr*100 + wk)))
			for !stop.Load() {
				if writesAcked.Load() >= readsDone.Load()/writePerReads+1 {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				k := 1 + r.Intn(rows-1)
				if _, err := c.Exec(fmt.Sprintf(`UPDATE acct SET balance = balance + 1 WHERE id = %d`, k)); err != nil {
					if isContention(err) {
						continue
					}
					workerErr <- err
					return
				}
				writesAcked.Add(1)
			}
		}(wk)
	}

	// Lag prober: commit a heartbeat on the primary, then time how long
	// the slowest replica takes to replay past it.
	var lags []time.Duration
	if nr > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(primary.addr)
			if err != nil {
				workerErr <- err
				return
			}
			defer c.Close()
			for i := 0; i < lagSamples && !stop.Load(); i++ {
				if _, err := c.Exec(`UPDATE acct SET balance = balance + 1 WHERE id = 0`); err != nil {
					if isContention(err) {
						continue
					}
					workerErr <- err
					return
				}
				w := primary.eng.Txns().Watermark()
				t0 := time.Now()
				for _, n := range nodes[1:] {
					if err := e18WaitCaughtUp(n.rep, w, 10*time.Second); err != nil {
						workerErr <- err
						return
					}
				}
				lags = append(lags, time.Since(t0))
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	// Reads: a fixed count spread over the cluster client's round-robin,
	// twice. The first pass runs under the write load, which it paces, and
	// the lag prober. The second measures capacity on freshly zeroed
	// simulated clocks once the writes have stopped and every replica has
	// replayed them: a replica's clock also takes its apply work, and how
	// much of that lands inside the read window depends on how the host
	// batched the shipped writes — wall time, which would make capacity a
	// coin toss. Capacity is judged on read work alone.
	per := totalReads / readers
	readPhase := func() error {
		var rwg sync.WaitGroup
		readErr := make(chan error, readers)
		for rd := 0; rd < readers; rd++ {
			rwg.Add(1)
			go func(rd int) {
				defer rwg.Done()
				cl, err := client.DialCluster(addrs)
				if err != nil {
					readErr <- err
					return
				}
				defer cl.Close()
				r := rand.New(rand.NewSource(int64(nr*1000 + rd)))
				for i := 0; i < per; i++ {
					// Read mix: mostly point SELECTs, one analytics
					// scan in nine. The scan period is coprime with every
					// replica count in the grid so the client's round-robin
					// never aliases all scans onto one replica.
					q := fmt.Sprintf(`SELECT * FROM acct WHERE id = %d`, r.Intn(rows))
					if i%9 == 8 {
						q = `SELECT COUNT(*) AS n, SUM(balance) AS total FROM acct`
					}
					if _, err := cl.Query(q); err != nil {
						readErr <- fmt.Errorf("reader %d: %w", rd, err)
						return
					}
					readsDone.Add(1)
				}
			}(rd)
		}
		rwg.Wait()
		select {
		case err := <-readErr:
			return err
		default:
			return nil
		}
	}
	err = readPhase()
	stop.Store(true)
	wg.Wait()
	select {
	case err = <-workerErr:
	default:
	}
	if err != nil {
		return nil, 0, err
	}
	w := primary.eng.Txns().Watermark()
	for _, n := range nodes[1:] {
		if err := e18WaitCaughtUp(n.rep, w, 10*time.Second); err != nil {
			return nil, 0, err
		}
	}
	for _, n := range nodes {
		n.eng.Machine().ResetClocks()
	}
	if err := readPhase(); err != nil {
		return nil, 0, err
	}

	// Capacity: the busiest PE of the endpoints that served reads bounds
	// the deployment — its work, not its clock, which also waited on
	// arrivals whose order the host's scheduling of the readers decided.
	// With replicas the primary is excluded — reads never touch it.
	serving := nodes[1:]
	if nr == 0 {
		serving = nodes[:1]
	}
	var busiest time.Duration
	for _, n := range serving {
		busiest = max(busiest, n.eng.Machine().MaxBusy())
	}
	if busiest <= 0 {
		return nil, 0, fmt.Errorf("no simulated busy time recorded on serving endpoints")
	}
	reads := per * readers
	capacity := float64(reads) / busiest.Seconds()
	speedup := "1.00x"
	if baseline > 0 {
		speedup = fmt.Sprintf("%.2fx", capacity/baseline)
	} else if nr != 0 {
		speedup = "n/a"
	}
	p50, p99 := "n/a", "n/a"
	if len(lags) > 0 {
		sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
		p50 = percentile(lags, 0.50).Round(10 * time.Microsecond).String()
		p99 = percentile(lags, 0.99).Round(10 * time.Microsecond).String()
	}
	return []string{
		fmt.Sprint(nr), fmt.Sprint(reads), fmt.Sprintf("%.0f", capacity), speedup,
		fmt.Sprint(writesAcked.Load()), p50, p99, "ok",
	}, capacity, nil
}

// runE18FailoverCell is the audited failover: ledger workload, torn
// replica stream mid-run, deterministic primary crash, promotion,
// stale-epoch fencing of the recovered old primary, full audit.
func runE18FailoverCell(numPEs int, quick bool) ([]string, error) {
	defer fault.DisarmAll()
	defer fault.ClearCrash()

	workers := 3
	warmup := 25 * time.Millisecond
	if quick {
		warmup = 10 * time.Millisecond
	}

	primary, err := e18StartNode(numPEs, "")
	if err != nil {
		return nil, err
	}
	defer primary.close()
	if err := e18LedgerSetup(primary.eng); err != nil {
		return nil, err
	}
	var reps []*e18Node
	for i := 0; i < 2; i++ {
		n, err := e18StartNode(numPEs, primary.addr)
		if err != nil {
			return nil, err
		}
		defer n.close()
		reps = append(reps, n)
	}
	// Attach proof: one commit, both replicas replay it.
	{
		c, err := client.Dial(primary.addr)
		if err != nil {
			return nil, err
		}
		_, err = c.Exec(`UPDATE acct SET bal = bal + 0 WHERE id = 0`)
		c.Close()
		if err != nil {
			return nil, err
		}
		w := primary.eng.Txns().Watermark()
		for _, n := range reps {
			if err := e18WaitCaughtUp(n.rep, w, 10*time.Second); err != nil {
				return nil, err
			}
		}
	}

	ledger := newE17Ledger()
	var stop atomic.Bool
	var wg sync.WaitGroup
	var wireErr error
	var errOnce sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := e17WireWorker(primary.addr, int64(w)+301, &stop, ledger); err != nil {
				errOnce.Do(func() { wireErr = err })
				stop.Store(true)
			}
		}(w)
	}

	// Torn stream (satellite of the failover audit): crash replica 1
	// mid-stream; it must resubscribe from its durable offsets and
	// re-apply idempotently before the real fault even lands.
	time.Sleep(warmup)
	if err := reps[1].rep.CrashRecover(); err != nil {
		stop.Store(true)
		wg.Wait()
		return nil, fmt.Errorf("torn stream: %w", err)
	}
	time.Sleep(warmup)

	// The deterministic kill: first commit after arming dies inside the
	// primary's fault domain only — the replicas' stores stay healthy.
	if err := fault.Arm("ofm.commit.pre", fault.Spec{Mode: fault.Crash, N: 1, Domain: primary.eng.FaultDomain()}); err != nil {
		stop.Store(true)
		wg.Wait()
		return nil, err
	}
	pt := fault.Lookup("ofm.commit.pre")
	deadline := time.Now().Add(5 * time.Second)
	for pt.Fired() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if wireErr != nil {
		return nil, wireErr
	}
	if pt.Fired() == 0 {
		return nil, fmt.Errorf("fault point never fired under the workload")
	}
	fault.DisarmAll()

	// The primary machine is gone: take its endpoint down.
	primary.srv.Close()
	<-primary.done
	primary.src.Close()

	// Promote the most-caught-up replica; the survivor re-points at it.
	win, lose := reps[0], reps[1]
	if lose.rep.Watermark() > win.rep.Watermark() {
		win, lose = lose, win
	}
	pc, err := client.Dial(win.addr)
	if err != nil {
		return nil, err
	}
	res, err := pc.Exec(`PROMOTE`)
	pc.Close()
	if err != nil {
		return nil, fmt.Errorf("promote: %w", err)
	}
	lose.rep.Stop()
	rep2, err := repl.StartReplica(repl.ReplicaConfig{Engine: lose.eng, Primary: win.addr, RetryBackoff: 5 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	defer rep2.Stop()
	lose.rep = rep2

	// Audit: conservation + every acknowledged commit present, on the
	// new primary's own state.
	if err := e18FailoverAudit(win.eng, ledger); err != nil {
		return nil, err
	}

	// Liveness through the cluster client: the dead endpoint and the
	// demoted survivor are skipped, the write lands on the new primary.
	cl, err := client.DialCluster([]string{primary.addr, win.addr, lose.addr})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	for _, sql := range []string{
		`UPDATE acct SET bal = bal - 1 WHERE id = 2`,
		`UPDATE acct SET bal = bal + 1 WHERE id = 3`,
	} {
		if _, err := cl.Exec(sql); err != nil {
			return nil, fmt.Errorf("post-failover write: %w", err)
		}
	}
	if _, sum, err := e17Balances(win.eng); err != nil || sum != int64(e17Rows*100+100) {
		return nil, fmt.Errorf("post-failover transfer broke conservation: sum=%d err=%v", sum, err)
	}

	// Stale-epoch fencing: revive the old primary (it still believes it
	// is epoch-1 primary) and stream from it into the promoted node —
	// every frame must be refused.
	primary.eng.FaultDomain().ClearCrash()
	if err := primary.eng.CrashTable("acct"); err != nil {
		return nil, err
	}
	if _, err := primary.eng.RecoverTableReport("acct"); err != nil {
		return nil, fmt.Errorf("old primary recovery: %w", err)
	}
	oldSrv, err := server.New(server.Config{Engine: primary.eng, Source: repl.NewSource(repl.SourceConfig{Engine: primary.eng, PollInterval: 2 * time.Millisecond})})
	if err != nil {
		return nil, err
	}
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	oldDone := make(chan struct{})
	go func() { oldSrv.Serve(ol); close(oldDone) }()
	defer func() { oldSrv.Close(); <-oldDone }()
	fenced, err := repl.StartReplica(repl.ReplicaConfig{Engine: win.eng, Primary: ol.Addr().String(), RetryBackoff: 2 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	fenceDeadline := time.Now().Add(5 * time.Second)
	for fenced.StaleEpochRefusals() == 0 && time.Now().Before(fenceDeadline) {
		time.Sleep(time.Millisecond)
	}
	fenced.Stop()
	win.eng.SetReadOnly(false) // StartReplica flipped the promoted node
	if fenced.StaleEpochRefusals() == 0 {
		return nil, fmt.Errorf("promoted node accepted the stale primary's stream")
	}
	if _, sum, err := e17Balances(win.eng); err != nil || sum != int64(e17Rows*100+100) {
		return nil, fmt.Errorf("stale primary corrupted the promoted node: sum=%d err=%v", sum, err)
	}

	return []string{
		"failover", "-", "-", "-",
		fmt.Sprintf("%d acked, %d in-flight", ledger.commits, len(ledger.maybe)),
		"-", "-",
		fmt.Sprintf("ok (%s, %d stale frames refused)", res.Msg, fenced.StaleEpochRefusals()),
	}, nil
}

// e18LedgerSetup builds the E17 ledger on an already-running engine:
// e17Rows accounts at 100, committed marker on 0, rolled-back marker
// probe on 1.
func e18LedgerSetup(eng *core.Engine) error {
	if err := eng.CreateTable("acct", value.MustSchema("id", "INT", "bal", "INT"),
		&fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 4}, []int{0}); err != nil {
		return err
	}
	tuples := make([]value.Tuple, e17Rows)
	for i := range tuples {
		tuples[i] = value.Ints(int64(i), 100)
	}
	if err := eng.LoadTable("acct", tuples); err != nil {
		return err
	}
	s := eng.NewSession()
	defer s.Close()
	for _, sql := range []string{
		`UPDATE acct SET bal = bal + 100 WHERE id = 0`,
		`BEGIN`, `UPDATE acct SET bal = 9999 WHERE id = 1`, `ROLLBACK`,
	} {
		if _, err := s.Exec(sql); err != nil {
			return err
		}
	}
	return nil
}

// e18FailoverAudit checks the promoted replica against the workload's
// ledger: money conserved, markers intact, balances explainable as the
// acknowledged commits plus some subset of the in-flight transfers.
func e18FailoverAudit(eng *core.Engine, ledger *e17Ledger) error {
	bal, sum, err := e17Balances(eng)
	if err != nil {
		return fmt.Errorf("post-promotion read: %w", err)
	}
	const wantSum = int64(e17Rows*100 + 100)
	if sum != wantSum {
		return fmt.Errorf("sum = %d, want %d: money not conserved across failover", sum, wantSum)
	}
	if bal[0] != 200 {
		return fmt.Errorf("committed marker lost in failover: bal(0) = %d, want 200", bal[0])
	}
	if bal[1] != 100 {
		return fmt.Errorf("rolled-back write surfaced on the replica: bal(1) = %d, want 100", bal[1])
	}
	if !ledger.explains(bal) {
		return fmt.Errorf("promoted state not explainable as acked ledger + subset of %d in-flight transfers: an acknowledged commit was lost", len(ledger.maybe))
	}
	return nil
}
