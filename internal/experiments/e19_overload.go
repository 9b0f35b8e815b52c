package experiments

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fragment"
	"repro/internal/server"
	"repro/internal/value"
)

// E19 is the standing-overload experiment for the multi-tenant front
// door. Phase 1 measures the server's capacity C with a closed loop
// sized to the admission controller's in-flight cap. Phase 2 offers
// roughly 4x C across three authenticated tenants — alpha and beta
// well-behaved interactive tenants pacing at C each, mallory a
// misbehaving batch tenant pacing at 2C — and the admission queue must
// degrade gracefully: goodput stays near C, admitted-statement latency
// stays bounded by the queue's wait timeout, every shed is a coded
// retryable refusal, and mallory cannot starve alpha or beta below a
// fraction of their fair share.

// e19Tenant accumulates one tenant's overload-phase outcomes.
type e19Tenant struct {
	name  string
	class string
	rate  float64 // offered statements/sec target

	mu       sync.Mutex
	offered  int64 // tokens issued (attempted + dropped)
	dropped  int64 // tokens dropped client-side: the tenant's own pool was saturated
	admitted int64
	shed     int64 // retryable refusals (queue full, wait timeout)
	hard     []error
	lats     []time.Duration
}

func (t *e19Tenant) record(lat time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case err == nil:
		t.admitted++
		t.lats = append(t.lats, lat)
	case client.IsRetryable(err):
		t.shed++
	default:
		t.hard = append(t.hard, err)
	}
}

// e19Stats is everything the E19 acceptance test asserts on.
type e19Stats struct {
	capacity      float64 // calibrated statements/sec
	calP50        time.Duration
	calP99        time.Duration
	dur           time.Duration // overload phase wall time
	queueTimeSeen bool          // some admitted Result carried QueueTime > 0
	globalShed    int64         // SHOW ADMISSION's controller-side shed count
	admissionRows int           // rows SHOW ADMISSION rendered
	tenants       []*e19Tenant  // alpha, beta, mallory
}

func (st *e19Stats) goodput() float64 {
	var n int64
	for _, t := range st.tenants {
		n += t.admitted
	}
	return float64(n) / st.dur.Seconds()
}

func e19Percentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p * float64(len(s)-1))
	return s[i]
}

const e19Stmt = `SELECT SUM(bal) FROM acct`

// runE19 builds the server, calibrates, overloads, and audits. The
// admission geometry: 4 statements in flight server-wide, 2 per
// tenant, a 12-deep queue (4 per tenant) and a 100ms wait bound — so
// under 4x load the queue is never empty (goodput stays near C) and
// no admitted statement can have waited more than 100ms.
func runE19(quick bool) (*e19Stats, error) {
	rows, numPEs := 2048, 16
	calDur, loadDur := 800*time.Millisecond, 3*time.Second
	workers := 8 // per tenant, overload phase
	if quick {
		rows, numPEs = 1024, 8
		calDur, loadDur = 300*time.Millisecond, 1200*time.Millisecond
		workers = 6
	}
	const (
		maxInFlight = 4
		perTenant   = 2
		waitTimeout = 100 * time.Millisecond
	)

	eng, err := core.New(core.Config{NumPEs: numPEs})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if err := eng.CreateTable("acct", value.MustSchema("id", "INT", "bal", "INT"),
		&fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 4}, []int{0}); err != nil {
		return nil, err
	}
	tuples := make([]value.Tuple, rows)
	for i := range tuples {
		tuples[i] = value.Ints(int64(i), int64(i%97))
	}
	if err := eng.LoadTable("acct", tuples); err != nil {
		return nil, err
	}

	ctl := admission.New(admission.Config{
		MaxInFlight: maxInFlight, QueueDepth: 3 * maxInFlight,
		PerTenantQueue: maxInFlight, WaitTimeout: waitTimeout,
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

	// Phase 1 — calibration: a closed loop exactly as wide as the
	// in-flight cap, before any users exist (so the uncredentialed
	// legacy path is what gets measured). C is its completion rate.
	st := &e19Stats{}
	{
		var n int64
		var latMu sync.Mutex
		var lats []time.Duration
		var stop atomic.Bool
		var wg sync.WaitGroup
		var calErr error
		var errOnce sync.Once
		for w := 0; w < maxInFlight; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := client.Dial(addr, client.Options{StatementTimeout: time.Second})
				if err != nil {
					errOnce.Do(func() { calErr = err })
					return
				}
				defer c.Close()
				for !stop.Load() {
					t0 := time.Now()
					if _, err := c.Exec(e19Stmt); err != nil {
						if client.IsRetryable(err) {
							continue
						}
						errOnce.Do(func() { calErr = err })
						return
					}
					lat := time.Since(t0)
					atomic.AddInt64(&n, 1)
					latMu.Lock()
					lats = append(lats, lat)
					latMu.Unlock()
				}
			}()
		}
		t0 := time.Now()
		time.Sleep(calDur)
		stop.Store(true)
		wg.Wait()
		if calErr != nil {
			return nil, fmt.Errorf("calibration: %w", calErr)
		}
		elapsed := time.Since(t0)
		if n == 0 {
			return nil, fmt.Errorf("calibration completed no statements")
		}
		st.capacity = float64(n) / elapsed.Seconds()
		st.calP50 = e19Percentile(lats, 0.50)
		st.calP99 = e19Percentile(lats, 0.99)
	}

	// Tenants: secrets at rest hashed in the catalog, per-table grants.
	admin := eng.NewSession()
	for _, sql := range []string{
		fmt.Sprintf(`CREATE USER alpha PASSWORD 'pw-alpha' PRIORITY interactive MAX_CONCURRENT %d`, perTenant),
		fmt.Sprintf(`CREATE USER beta PASSWORD 'pw-beta' PRIORITY interactive MAX_CONCURRENT %d`, perTenant),
		fmt.Sprintf(`CREATE USER mallory PASSWORD 'pw-mallory' PRIORITY batch MAX_CONCURRENT %d`, perTenant),
		`GRANT SELECT ON acct TO alpha`,
		`GRANT SELECT ON acct TO beta`,
		`GRANT SELECT ON acct TO mallory`,
	} {
		if _, err := admin.Exec(sql); err != nil {
			admin.Close()
			return nil, err
		}
	}

	// Phase 2 — standing overload at ~4x capacity: alpha and beta pace
	// at C each, mallory floods at 2C. Semi-open loop: a pacer drips
	// tokens at the offered rate into a small buffer; when the tenant's
	// own worker pool can't keep up (every worker stuck in the
	// admission queue), excess tokens are dropped client-side and
	// counted — they never reach the server.
	st.tenants = []*e19Tenant{
		{name: "alpha", class: "interactive", rate: st.capacity},
		{name: "beta", class: "interactive", rate: st.capacity},
		{name: "mallory", class: "batch", rate: 2 * st.capacity},
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var qtSeen atomic.Bool
	for _, tn := range st.tenants {
		tokens := make(chan struct{}, 64)
		wg.Add(1)
		go func(tn *e19Tenant) { // pacer
			defer wg.Done()
			const tick = 2 * time.Millisecond
			carry := 0.0
			for !stop.Load() {
				time.Sleep(tick)
				carry += tn.rate * tick.Seconds()
				for ; carry >= 1; carry-- {
					tn.mu.Lock()
					tn.offered++
					tn.mu.Unlock()
					select {
					case tokens <- struct{}{}:
					default:
						tn.mu.Lock()
						tn.dropped++
						tn.mu.Unlock()
					}
				}
			}
		}(tn)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(tn *e19Tenant) {
				defer wg.Done()
				c, err := client.Dial(addr, client.Options{
					StatementTimeout: time.Second,
					Tenant:           tn.name, Secret: "pw-" + tn.name,
				})
				if err != nil {
					tn.mu.Lock()
					tn.hard = append(tn.hard, err)
					tn.mu.Unlock()
					return
				}
				defer c.Close()
				for !stop.Load() {
					select {
					case <-tokens:
					default:
						time.Sleep(time.Millisecond)
						continue
					}
					t0 := time.Now()
					res, err := c.Exec(e19Stmt)
					tn.record(time.Since(t0), err)
					if err == nil && res.QueueTime > 0 {
						qtSeen.Store(true)
					}
					if c.Broken() != nil {
						return
					}
				}
			}(tn)
		}
	}
	t0 := time.Now()
	time.Sleep(loadDur)
	stop.Store(true)
	wg.Wait()
	st.dur = time.Since(t0)
	st.queueTimeSeen = qtSeen.Load()

	// Observability: SHOW ADMISSION must render every tenant plus the
	// global row, and the controller must have shed for real.
	res, err := admin.Exec(`SHOW ADMISSION`)
	admin.Close()
	if err != nil {
		return nil, fmt.Errorf("SHOW ADMISSION: %w", err)
	}
	if res.Rel != nil {
		st.admissionRows = len(res.Rel.Tuples)
		for _, tu := range res.Rel.Tuples {
			if tu[0].Str() == "(global)" {
				st.globalShed = tu[4].Int()
			}
		}
	}
	return st, nil
}

// E19Overload renders the overload experiment as a table: the
// calibration row, one row per tenant, and the totals row.
func E19Overload(quick bool) (*Table, error) {
	st, err := runE19(quick)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E19",
		Title: fmt.Sprintf("standing overload: ~4x capacity offered across 3 tenants (capacity %.0f stmts/s, %s run)",
			st.capacity, st.dur.Round(10*time.Millisecond)),
		Header: []string{"tenant", "class", "offered/s", "admitted/s", "shed", "dropped", "p50", "p99"},
		Notes: []string{
			"calibration: closed loop as wide as the in-flight cap, uncredentialed, before the overload phase",
			"alpha and beta pace at capacity each (interactive), mallory floods at 2x capacity (batch): ~4x total",
			"shed counts coded retryable refusals from the admission queue; dropped counts tokens the tenant's own saturated pool never sent",
			"admitted p99 is bounded by the admission wait timeout plus execution; sheds keep the queue finite instead of letting latency collapse",
		},
	}
	t.Rows = append(t.Rows, []string{
		"(calibration)", "closed-loop",
		fmt.Sprintf("%.0f", st.capacity), fmt.Sprintf("%.0f", st.capacity),
		"0", "0",
		st.calP50.Round(10 * time.Microsecond).String(),
		st.calP99.Round(10 * time.Microsecond).String(),
	})
	secs := st.dur.Seconds()
	for _, tn := range st.tenants {
		t.Rows = append(t.Rows, []string{
			tn.name, tn.class,
			fmt.Sprintf("%.0f", float64(tn.offered)/secs),
			fmt.Sprintf("%.0f", float64(tn.admitted)/secs),
			fmt.Sprint(tn.shed), fmt.Sprint(tn.dropped),
			e19Percentile(tn.lats, 0.50).Round(10 * time.Microsecond).String(),
			e19Percentile(tn.lats, 0.99).Round(10 * time.Microsecond).String(),
		})
	}
	var allLats []time.Duration
	var offered, admitted, shed, dropped int64
	for _, tn := range st.tenants {
		offered += tn.offered
		admitted += tn.admitted
		shed += tn.shed
		dropped += tn.dropped
		allLats = append(allLats, tn.lats...)
	}
	t.Rows = append(t.Rows, []string{
		"(all)", "",
		fmt.Sprintf("%.0f", float64(offered)/secs),
		fmt.Sprintf("%.0f", float64(admitted)/secs),
		fmt.Sprint(shed), fmt.Sprint(dropped),
		e19Percentile(allLats, 0.50).Round(10 * time.Microsecond).String(),
		e19Percentile(allLats, 0.99).Round(10 * time.Microsecond).String(),
	})
	return t, nil
}
