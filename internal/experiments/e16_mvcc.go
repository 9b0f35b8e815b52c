package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fragment"
	"repro/internal/txn"
	"repro/internal/value"
)

// E16SnapshotReads measures the MVCC tentpole claim: snapshot reads
// never block behind writers, so reader throughput stays flat as the
// writer population grows. The grid runs one mixed workload (full-scan
// aggregate readers vs paced two-row transfer writers) at writer counts
// 1→16. The paper's PRISMA machine leans on a locking scheduler (§3.2);
// what reads under it cost — shared fragment locks queued behind the
// writers — is recorded in ROADMAP.md's E16 baselines.
func E16SnapshotReads(quick bool) (*Table, error) {
	rows := 4000
	numPEs := 32
	readers := 8
	writerCounts := []int{1, 4, 16}
	cell := 400 * time.Millisecond
	pace := 8 * time.Millisecond
	think := 2 * time.Millisecond
	if quick {
		rows = 1000
		numPEs = 16
		readers = 4
		cell = 250 * time.Millisecond
		pace = 8 * time.Millisecond
	}

	t := &Table{
		ID: "E16",
		Title: fmt.Sprintf("snapshot reads under writer load, %d-row relation over 8 fragments (%d PEs, %d readers)",
			rows, numPEs, readers),
		Header: []string{"mode", "writers", "reads/sec", "read p99", "commits/sec", "aborts"},
		Notes: []string{
			"readers run full-scan aggregates (SUM/COUNT over every fragment); writers run paced two-row transfer transactions holding locks across a client think-time pause",
			"mvcc: reads pin a snapshot and take no locks",
			"aborts counts retryable writer conflicts (first-committer-wins or deadlock victims)",
			"the claim under test: mvcc reads/sec stays flat (±15%) from 1 to 16 writers",
		},
	}

	for _, nw := range writerCounts {
		row, err := runE16Cell(rows, numPEs, readers, nw, cell, pace, think)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// runE16Cell builds a fresh engine and runs readers against nw writers
// for one wall-clock window. Writers are paced (one transaction per pace
// interval) so the grid offers a fixed per-writer load: growing the
// writer count then grows write pressure proportionally instead of
// letting one unthrottled loop saturate the host's cores, which would
// measure CPU scheduling rather than the concurrency-control design. Each
// transfer holds its exclusive locks across a client think-time pause —
// the interactive-transaction shape a locking scheduler handles worst:
// the pause costs no CPU, so a reader slowdown as writers grow would be
// blocking.
func runE16Cell(rows, numPEs, readers, nw int, window, pace, think time.Duration) ([]string, error) {
	eng, err := core.New(core.Config{NumPEs: numPEs})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	schema := value.MustSchema("id", "INT", "bal", "INT")
	if err := eng.CreateTable("acct", schema,
		&fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 8}, []int{0}); err != nil {
		return nil, err
	}
	tuples := make([]value.Tuple, rows)
	for i := range tuples {
		tuples[i] = value.Ints(int64(i), 1000)
	}
	if err := eng.LoadTable("acct", tuples); err != nil {
		return nil, err
	}

	var (
		stop    atomic.Bool
		commits atomic.Int64
		aborts  atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		lats    []time.Duration
		readErr error
	)
	fail := func(err error) {
		mu.Lock()
		if readErr == nil {
			readErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}

	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := eng.NewSession()
			defer s.Close()
			r := rand.New(rand.NewSource(int64(w) + 1))
			tick := time.NewTicker(pace)
			defer tick.Stop()
			for !stop.Load() {
				// One transfer transaction: exclusive locks held across
				// both statements, the think-time pause, and the
				// two-phase commit.
				a, b := r.Intn(rows), r.Intn(rows)
				_, err := s.Exec(`BEGIN`)
				if err == nil {
					_, err = s.Exec(fmt.Sprintf(`UPDATE acct SET bal = bal - 1 WHERE id = %d`, a))
				}
				if err == nil {
					time.Sleep(think)
					_, err = s.Exec(fmt.Sprintf(`UPDATE acct SET bal = bal + 1 WHERE id = %d`, b))
				}
				if err == nil {
					_, err = s.Exec(`COMMIT`)
				}
				switch {
				case err == nil:
					commits.Add(1)
				case txn.IsRetryable(err):
					aborts.Add(1)
					if s.InTransaction() {
						s.Exec(`ROLLBACK`)
					}
				default:
					fail(fmt.Errorf("E16 writers=%d: writer: %w", nw, err))
					return
				}
				<-tick.C
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			s := eng.NewSession()
			defer s.Close()
			var mine []time.Duration
			for !stop.Load() {
				start := time.Now()
				if _, err := s.Query(`SELECT COUNT(*) AS n, SUM(bal) AS total FROM acct`); err != nil {
					fail(fmt.Errorf("E16 writers=%d: reader: %w", nw, err))
					return
				}
				mine = append(mine, time.Since(start))
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}(rd)
	}

	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	if readErr != nil {
		return nil, readErr
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return []string{
		"mvcc",
		fmt.Sprint(nw),
		fmt.Sprintf("%.2f", float64(len(lats))/window.Seconds()),
		percentile(lats, 0.99).Round(time.Microsecond).String(),
		fmt.Sprintf("%.2f", float64(commits.Load())/window.Seconds()),
		fmt.Sprint(aborts.Load()),
	}, nil
}
