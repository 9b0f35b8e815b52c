package experiments

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fragment"
	"repro/internal/server"
	"repro/internal/txn"
	"repro/internal/value"
)

// E17 workload geometry: accounts [0, e17Rows). Account 0 carries the
// committed marker (+100 before the fault arms), account 1 the
// rolled-back marker (set to 9999, then ROLLBACK); workers transfer
// between accounts [2, e17Rows). The invariant sum is therefore
// e17Rows*100 + 100 no matter which in-flight transfers survive the
// crash — transfers are zero-sum.
const (
	e17Rows     = 64
	e17Transfer = 10
)

// E17Crashpoints is the fault-injection payoff experiment: for EVERY
// registered fault point it runs a concurrent transfer workload, fires
// a deterministic crash (or torn write) at that point, restarts, and
// checks the crash-consistency contract — money conserved, a committed
// marker durable, a rolled-back marker absent, zero unresolved in-doubt
// transactions, and balances explainable as the acknowledged ledger
// plus some subset of the transfers whose COMMIT got an indeterminate
// answer. The paper's §5 promises exactly this class of robustness from
// the 2PC + logging design; this sweep is the falsifiable version.
func E17Crashpoints(quick bool) (*Table, error) {
	workers := 4
	numPEs := 16
	warmup := 25 * time.Millisecond
	if quick {
		workers = 3
		numPEs = 8
		warmup = 10 * time.Millisecond
	}

	t := &Table{
		ID: "E17",
		Title: fmt.Sprintf("crashpoint sweep: %d-account transfer workload (%d workers, %d PEs), one injected crash per registered fault point",
			e17Rows, workers, numPEs),
		Header: []string{"fault point", "mode", "commits", "in-flight", "redo", "resolved", "presumed", "torn B", "recovery", "invariants"},
		Notes: []string{
			"each row: fresh engine, concurrent transfers + rollbacks + checkpoints, fault armed after warmup, crash on first hit, restart, recover",
			"in-flight counts transactions whose COMMIT got an ambiguous answer (crash mid-protocol); recovery must settle every one via the decision log or presumed abort",
			"invariants: sum conserved, committed marker durable, rolled-back marker absent, zero unresolved in-doubt txns, balances = acked ledger + a subset of in-flight transfers, engine functional after recovery",
			"*.torn points tear the write at a seeded byte offset instead of failing cleanly; recovery truncates the torn tail (torn B)",
			"server.frame.write runs over TCP: the fault drops a reply frame, the client treats the dead connection as indeterminate (never auto-retried), and a fresh connection audits the ledger",
			"admission.* and auth.check run over TCP behind a saturating admission controller with authenticated tenants: injected sheds and auth denials always land before execution, so the workload absorbs them (retry or rollback) and the ledger stays exact",
		},
	}

	for i, name := range fault.Points() {
		var row []string
		var err error
		switch {
		case name == "server.frame.write":
			row, err = runE17WireCell(name, workers, numPEs, warmup)
		case strings.HasPrefix(name, "admission.") || name == "auth.check":
			row, err = runE17AdmissionCell(name, workers, numPEs, warmup)
		default:
			row, err = runE17CrashCell(name, int64(i), workers, numPEs, warmup)
		}
		if err != nil {
			return nil, fmt.Errorf("E17 %s: %w", name, err)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// e17Ledger is what the workload knows happened, against which the
// recovered balances are audited.
type e17Ledger struct {
	mu      sync.Mutex
	commits int           // acknowledged COMMITs
	acked   map[int]int64 // per-account delta from acknowledged transfers
	maybe   [][2]int      // transfers whose COMMIT was ambiguous
}

func newE17Ledger() *e17Ledger { return &e17Ledger{acked: make(map[int]int64)} }

func (l *e17Ledger) ack(a, b int) {
	l.mu.Lock()
	l.commits++
	l.acked[a] -= e17Transfer
	l.acked[b] += e17Transfer
	l.mu.Unlock()
}

func (l *e17Ledger) ambiguous(a, b int) {
	l.mu.Lock()
	l.maybe = append(l.maybe, [2]int{a, b})
	l.mu.Unlock()
}

// explains reports whether the recovered balances equal the
// acknowledged ledger plus some subset of the ambiguous transfers —
// each in-flight transaction landed atomically or not at all. The
// subset is searched exhaustively (each worker contributes at most one
// ambiguous transfer, so the space is tiny).
func (l *e17Ledger) explains(bal map[int]int64) bool {
	for mask := 0; mask < 1<<len(l.maybe); mask++ {
		want := make(map[int]int64, len(l.acked))
		for id, d := range l.acked {
			want[id] = d
		}
		for i, tr := range l.maybe {
			if mask&(1<<i) != 0 {
				want[tr[0]] -= e17Transfer
				want[tr[1]] += e17Transfer
			}
		}
		ok := true
		for id := 2; id < e17Rows && ok; id++ {
			ok = bal[id] == 100+want[id]
		}
		if ok {
			return true
		}
	}
	return false
}

// e17Engine builds a fresh engine with the standard E17 table: accounts
// 0..e17Rows-1 at 100 each, then the committed marker (account 0 +100)
// and the rolled-back marker (account 1 set to 9999, rolled back).
func e17Engine(numPEs int) (*core.Engine, error) {
	eng, err := core.New(core.Config{NumPEs: numPEs})
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			eng.Close()
		}
	}()
	if err := eng.CreateTable("acct", value.MustSchema("id", "INT", "bal", "INT"),
		&fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 4}, []int{0}); err != nil {
		return nil, err
	}
	tuples := make([]value.Tuple, e17Rows)
	for i := range tuples {
		tuples[i] = value.Ints(int64(i), 100)
	}
	if err := eng.LoadTable("acct", tuples); err != nil {
		return nil, err
	}
	s := eng.NewSession()
	defer s.Close()
	for _, sql := range []string{
		`UPDATE acct SET bal = bal + 100 WHERE id = 0`,
		`BEGIN`, `UPDATE acct SET bal = 9999 WHERE id = 1`, `ROLLBACK`,
	} {
		if _, err := s.Exec(sql); err != nil {
			return nil, err
		}
	}
	ok = true
	return eng, nil
}

// e17Balances reads every account through a fresh session.
func e17Balances(eng *core.Engine) (map[int]int64, int64, error) {
	s := eng.NewSession()
	defer s.Close()
	rel, err := s.Query(`SELECT id, bal FROM acct`)
	if err != nil {
		return nil, 0, err
	}
	bal := make(map[int]int64, e17Rows)
	var sum int64
	for _, tu := range rel.Tuples {
		bal[int(tu[0].Int())] = tu[1].Int()
		sum += tu[1].Int()
	}
	return bal, sum, nil
}

// e17Worker runs transfer transactions (80%) and rollback probes (20%)
// until stop, recording acknowledged and ambiguous outcomes. A
// retryable failure is a clean abort — the server promised nothing
// committed — so the worker rolls back and moves on; any other COMMIT
// failure is ambiguous and ends the worker.
func e17Worker(eng *core.Engine, seed int64, stop *atomic.Bool, ledger *e17Ledger) {
	s := eng.NewSession()
	defer s.Close()
	r := rand.New(rand.NewSource(seed))
	for !stop.Load() {
		a := 2 + r.Intn(e17Rows-2)
		b := 2 + r.Intn(e17Rows-2)
		if r.Intn(5) == 0 {
			// Rollback probe: its write must never survive.
			s.Exec(`BEGIN`)
			s.Exec(fmt.Sprintf(`UPDATE acct SET bal = bal + 7 WHERE id = %d`, a))
			s.Exec(`ROLLBACK`)
			continue
		}
		_, err := s.Exec(`BEGIN`)
		if err == nil {
			_, err = s.Exec(fmt.Sprintf(`UPDATE acct SET bal = bal - %d WHERE id = %d`, e17Transfer, a))
		}
		if err == nil {
			_, err = s.Exec(fmt.Sprintf(`UPDATE acct SET bal = bal + %d WHERE id = %d`, e17Transfer, b))
		}
		if err != nil {
			// The transaction never reached COMMIT: nothing durable.
			if s.InTransaction() {
				s.Exec(`ROLLBACK`)
			}
			if fault.Crashed() {
				return
			}
			continue
		}
		_, err = s.Exec(`COMMIT`)
		switch {
		case err == nil:
			ledger.ack(a, b)
		case txn.IsRetryable(err):
			// Clean abort: the commit protocol promised no effects.
			if s.InTransaction() {
				s.Exec(`ROLLBACK`)
			}
		default:
			// Indeterminate: the crash hit mid-protocol. Recovery decides.
			ledger.ambiguous(a, b)
			return
		}
		if fault.Crashed() {
			return
		}
	}
}

// runE17CrashCell runs one engine-side fault point: workload, armed
// crash, restart, recovery, audit.
func runE17CrashCell(point string, idx int64, workers, numPEs int, warmup time.Duration) ([]string, error) {
	defer fault.DisarmAll()
	defer fault.ClearCrash()

	eng, err := e17Engine(numPEs)
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	ledger := newE17Ledger()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e17Worker(eng, idx*100+int64(w)+1, &stop, ledger)
		}(w)
	}
	// Checkpoint driver: gives the checkpoint-path fault points traffic
	// and exercises recovery-from-checkpoint for the rest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() && !fault.Crashed() {
			eng.CheckpointTable("acct")
			time.Sleep(2 * time.Millisecond)
		}
	}()

	time.Sleep(warmup)
	spec := fault.Spec{Mode: fault.Crash, N: 1}
	if strings.HasSuffix(point, ".torn") {
		spec = fault.Spec{Mode: fault.Tear, N: 1, TearAt: -1, Seed: 88 + idx}
	}
	if err := fault.Arm(point, spec); err != nil {
		stop.Store(true)
		wg.Wait()
		return nil, err
	}
	pt := fault.Lookup(point)
	deadline := time.Now().Add(5 * time.Second)
	for pt.Fired() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if pt.Fired() == 0 {
		return nil, fmt.Errorf("fault point never fired under the workload")
	}

	// The machine died here: wipe volatile state, clear the injected
	// poison, and restart from stable storage.
	if err := eng.CrashTable("acct"); err != nil {
		return nil, err
	}
	fault.DisarmAll()
	fault.ClearCrash()
	rep, err := eng.RecoverTableReport("acct")
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}

	if err := e17Audit(eng, ledger, rep.Unresolved); err != nil {
		return nil, err
	}
	return []string{
		point, spec.Mode.String(),
		fmt.Sprint(ledger.commits), fmt.Sprint(len(ledger.maybe)),
		fmt.Sprint(rep.Redo), fmt.Sprint(rep.ResolvedCommits), fmt.Sprint(rep.PresumedAborts),
		fmt.Sprint(rep.TornBytes),
		rep.Wall.Round(10 * time.Microsecond).String(),
		"ok",
	}, nil
}

// e17Audit checks every crash-consistency invariant after recovery,
// including that the engine still commits new work.
func e17Audit(eng *core.Engine, ledger *e17Ledger, unresolved int) error {
	if unresolved != 0 {
		return fmt.Errorf("%d in-doubt transactions leaked unresolved", unresolved)
	}
	bal, sum, err := e17Balances(eng)
	if err != nil {
		return fmt.Errorf("post-recovery read: %w", err)
	}
	const wantSum = int64(e17Rows*100 + 100)
	if sum != wantSum {
		return fmt.Errorf("sum = %d, want %d: money not conserved", sum, wantSum)
	}
	if bal[0] != 200 {
		return fmt.Errorf("committed marker lost: bal(0) = %d, want 200", bal[0])
	}
	if bal[1] != 100 {
		return fmt.Errorf("rolled-back write survived: bal(1) = %d, want 100", bal[1])
	}
	if !ledger.explains(bal) {
		return fmt.Errorf("balances not explainable as acked ledger + subset of %d in-flight transfers", len(ledger.maybe))
	}
	// Liveness: the recovered engine must still commit.
	s := eng.NewSession()
	defer s.Close()
	for _, sql := range []string{
		`BEGIN`,
		`UPDATE acct SET bal = bal - 1 WHERE id = 2`,
		`UPDATE acct SET bal = bal + 1 WHERE id = 3`,
		`COMMIT`,
	} {
		if _, err := s.Exec(sql); err != nil {
			return fmt.Errorf("post-recovery transaction: %w", err)
		}
	}
	if _, sum, err := e17Balances(eng); err != nil || sum != wantSum {
		return fmt.Errorf("post-recovery transfer broke conservation: sum=%d err=%v", sum, err)
	}
	return nil
}

// runE17WireCell exercises server.frame.write over real TCP: the fault
// makes one reply-frame write fail, which kills that connection AFTER
// its statement executed. The client contract is the inverse of the
// engine cells: the error is NOT retryable (the commit may have
// landed), the worker records it as in-flight, and a fresh connection
// audits the ledger — no recovery pass, because the engine never died.
func runE17WireCell(point string, workers, numPEs int, warmup time.Duration) ([]string, error) {
	defer fault.DisarmAll()
	defer fault.ClearCrash()

	eng, err := e17Engine(numPEs)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	srv, err := server.New(server.Config{Engine: eng, MaxConns: 64, StatementTimeout: time.Second})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan struct{})
	go func() { srv.Serve(l); close(serveDone) }()
	defer func() { srv.Close(); <-serveDone }()
	addr := l.Addr().String()

	ledger := newE17Ledger()
	var stop atomic.Bool
	var wg sync.WaitGroup
	var wireErr error
	var errOnce sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := e17WireWorker(addr, int64(w)+1, &stop, ledger); err != nil {
				errOnce.Do(func() { wireErr = err })
				stop.Store(true)
			}
		}(w)
	}

	time.Sleep(warmup)
	if err := fault.Arm(point, fault.Spec{Mode: fault.Error, N: 1}); err != nil {
		stop.Store(true)
		wg.Wait()
		return nil, err
	}
	pt := fault.Lookup(point)
	deadline := time.Now().Add(5 * time.Second)
	for pt.Fired() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Let the survivors keep committing briefly past the fault, then stop.
	time.Sleep(warmup)
	stop.Store(true)
	wg.Wait()
	if wireErr != nil {
		return nil, wireErr
	}
	if pt.Fired() == 0 {
		return nil, fmt.Errorf("fault point never fired under the workload")
	}
	fault.DisarmAll()

	// The engine never crashed: audit directly over a fresh connection's
	// view (via the embedded engine — same state the wire serves).
	if err := e17Audit(eng, ledger, 0); err != nil {
		return nil, err
	}
	return []string{
		point, "error",
		fmt.Sprint(ledger.commits), fmt.Sprint(len(ledger.maybe)),
		"0", "0", "0", "0", "n/a", "ok",
	}, nil
}

// runE17AdmissionCell exercises the overload and authorization fault
// points (admission.enqueue, admission.shed, auth.check) over real TCP:
// a deliberately tiny admission controller (one statement in flight)
// keeps the slow path hot, and the workers run as an authenticated
// tenant so every statement crosses the grant check. All three points
// reject a statement BEFORE it executes — a shed is coded retryable,
// an auth denial coded non-retryable — so the workload absorbs the
// injection without ambiguity and the ledger must stay exact.
func runE17AdmissionCell(point string, workers, numPEs int, warmup time.Duration) ([]string, error) {
	defer fault.DisarmAll()
	defer fault.ClearCrash()

	eng, err := e17Engine(numPEs)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	admin := eng.NewSession()
	for _, sql := range []string{
		`CREATE USER tenant PASSWORD 'pw'`,
		`GRANT ALL ON acct TO tenant`,
	} {
		if _, err := admin.Exec(sql); err != nil {
			admin.Close()
			return nil, err
		}
	}
	admin.Close()
	ctl := admission.New(admission.Config{
		MaxInFlight: 1, QueueDepth: 2 * workers, PerTenantQueue: 2 * workers,
		WaitTimeout: 250 * time.Millisecond,
	})
	srv, err := server.New(server.Config{Engine: eng, MaxConns: 64, StatementTimeout: time.Second, Admission: ctl})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan struct{})
	go func() { srv.Serve(l); close(serveDone) }()
	defer func() { srv.Close(); <-serveDone }()
	addr := l.Addr().String()

	ledger := newE17Ledger()
	var stop atomic.Bool
	var wg sync.WaitGroup
	var cellErr error
	var errOnce sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := e17AdmWorker(addr, int64(w)+1, &stop, ledger); err != nil {
				errOnce.Do(func() { cellErr = err })
				stop.Store(true)
			}
		}(w)
	}
	// Autocommit readers keep the single execution slot occupied for
	// whole table scans, so concurrent statements actually queue — the
	// transfer workers alone gate only their (instant) BEGINs, which
	// would leave admission.enqueue cold.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e17AdmReader(addr, &stop)
		}(w)
	}

	time.Sleep(warmup)
	if err := fault.Arm(point, fault.Spec{Mode: fault.Error, N: 1}); err != nil {
		stop.Store(true)
		wg.Wait()
		return nil, err
	}
	pt := fault.Lookup(point)
	deadline := time.Now().Add(5 * time.Second)
	for pt.Fired() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Let the survivors keep committing briefly past the fault, then stop.
	time.Sleep(warmup)
	stop.Store(true)
	wg.Wait()
	if cellErr != nil {
		return nil, cellErr
	}
	if pt.Fired() == 0 {
		return nil, fmt.Errorf("fault point never fired under the workload")
	}
	fault.DisarmAll()

	if err := e17Audit(eng, ledger, 0); err != nil {
		return nil, err
	}
	return []string{
		point, "error",
		fmt.Sprint(ledger.commits), fmt.Sprint(len(ledger.maybe)),
		"0", "0", "0", "0", "n/a", "ok",
	}, nil
}

// e17AdmWorker runs credentialed transfers through the admission
// queue. Sheds are retryable (the statement never ran) and injected
// auth denials land before execution, so both are absorbed in place:
// roll back whatever transaction is open and try again.
func e17AdmWorker(addr string, seed int64, stop *atomic.Bool, ledger *e17Ledger) error {
	c, err := client.Dial(addr, client.Options{StatementTimeout: time.Second, Tenant: "tenant", Secret: "pw"})
	if err != nil {
		return err
	}
	defer c.Close()
	r := rand.New(rand.NewSource(seed))
	step := func(sql string) error {
		for {
			_, err := c.Exec(sql)
			if err == nil || !client.IsRetryable(err) {
				return err
			}
			if stop.Load() {
				return err
			}
			time.Sleep(time.Duration(100+r.Intn(400)) * time.Microsecond)
		}
	}
	for !stop.Load() {
		a := 2 + r.Intn(e17Rows-2)
		b := 2 + r.Intn(e17Rows-2)
		var committing bool
		err := step(`BEGIN`)
		if err == nil {
			err = step(fmt.Sprintf(`UPDATE acct SET bal = bal - %d WHERE id = %d`, e17Transfer, a))
		}
		if err == nil {
			err = step(fmt.Sprintf(`UPDATE acct SET bal = bal + %d WHERE id = %d`, e17Transfer, b))
		}
		if err == nil {
			committing = true
			err = step(`COMMIT`)
		}
		switch {
		case err == nil:
			ledger.ack(a, b)
		case c.Broken() != nil:
			// Transport failure: the session died, aborting any open
			// transaction server-side — unless the connection broke with
			// the COMMIT in flight, which is indeterminate.
			if committing {
				ledger.ambiguous(a, b)
			}
			return nil
		default:
			// Pre-execution rejection (injected shed on BEGIN, injected
			// auth denial anywhere): the statement never ran, so abort
			// the transaction and move on.
			c.Exec(`ROLLBACK`)
		}
	}
	return nil
}

// e17AdmReader floods autocommit scans through the admission queue;
// every outcome — result, shed, injected denial — is acceptable, it
// exists only to hold the execution slot and force queueing.
func e17AdmReader(addr string, stop *atomic.Bool) {
	c, err := client.Dial(addr, client.Options{StatementTimeout: time.Second, Tenant: "tenant", Secret: "pw"})
	if err != nil {
		return
	}
	defer c.Close()
	for !stop.Load() {
		if _, err := c.Exec(`SELECT id, bal FROM acct`); err != nil && c.Broken() != nil {
			return
		}
	}
}

// e17WireWorker is e17Worker over TCP. client.Retry drives the
// transient-failure path (lock-wait deadlines, clean aborts); a broken
// connection after COMMIT is ambiguous — recorded, never re-run.
func e17WireWorker(addr string, seed int64, stop *atomic.Bool, ledger *e17Ledger) error {
	c, err := client.Dial(addr, client.Options{StatementTimeout: time.Second})
	if err != nil {
		return err
	}
	defer c.Close()
	r := rand.New(rand.NewSource(seed))
	for !stop.Load() {
		a := 2 + r.Intn(e17Rows-2)
		b := 2 + r.Intn(e17Rows-2)
		var committed bool
		err := client.RetryPolicy{MaxAttempts: 10, BaseBackoff: 200 * time.Microsecond, Seed: seed}.Do(func() error {
			committed = false
			if _, err := c.Exec(`BEGIN`); err != nil {
				return err
			}
			if _, err := c.Exec(fmt.Sprintf(`UPDATE acct SET bal = bal - %d WHERE id = %d`, e17Transfer, a)); err != nil {
				c.Exec(`ROLLBACK`)
				return err
			}
			if _, err := c.Exec(fmt.Sprintf(`UPDATE acct SET bal = bal + %d WHERE id = %d`, e17Transfer, b)); err != nil {
				c.Exec(`ROLLBACK`)
				return err
			}
			if _, err := c.Exec(`COMMIT`); err != nil {
				if client.IsRetryable(err) {
					c.Exec(`ROLLBACK`)
				} else {
					committed = true // ambiguous: COMMIT may have landed
				}
				return err
			}
			committed = true
			return nil
		})
		switch {
		case err == nil:
			ledger.ack(a, b)
		case committed:
			// The connection died with a COMMIT in flight: indeterminate.
			ledger.ambiguous(a, b)
			return nil
		case client.IsRetryable(err):
			// Retry budget spent on clean aborts: nothing committed.
		default:
			// Transport failure outside COMMIT (the dropped frame hit
			// BEGIN/UPDATE): the open transaction died with its session —
			// aborted server-side, nothing durable.
			return nil
		}
	}
	return nil
}
