package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fragment"
	"repro/internal/value"
)

// E6MultiQueryThroughput reproduces §2.2's inter-query parallelism
// claim: "evaluation of several queries and updates can be done in
// parallel". N concurrent sessions each run a mix of read queries
// against the same fragmented relation; total throughput versus N is
// reported.
func E6MultiQueryThroughput(quick bool) (*Table, error) {
	rows := 8000
	queriesPer := 12
	clients := []int{1, 2, 4, 8, 16}
	if quick {
		rows = 2000
		queriesPer = 4
		clients = []int{1, 4}
	}
	eng, err := core.New(core.Config{NumPEs: 64})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	schema := value.MustSchema("id", "INT", "dept", "VARCHAR", "salary", "INT")
	if err := eng.CreateTable("emp", schema,
		&fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 16}, []int{0}); err != nil {
		return nil, err
	}
	if err := eng.LoadTable("emp", genEmployees(rows, 23)); err != nil {
		return nil, err
	}
	queries := []string{
		`SELECT COUNT(*) AS n FROM emp WHERE salary > 50000`,
		`SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept`,
		`SELECT id, salary FROM emp WHERE id = 100`,
		`SELECT MAX(salary) AS hi FROM emp WHERE dept = 'eng'`,
	}

	t := &Table{
		ID:     "E6",
		Title:  fmt.Sprintf("multi-query throughput, %d-row relation over 16 fragments (64 PEs)", rows),
		Header: []string{"concurrent sessions", "total queries", "wall time", "queries/sec", "scale vs 1 client"},
	}
	var base float64
	for _, nc := range clients {
		var wg sync.WaitGroup
		errCh := make(chan error, nc)
		start := time.Now()
		for c := 0; c < nc; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				s := eng.NewSession()
				defer s.Close()
				for q := 0; q < queriesPer; q++ {
					if _, err := s.Exec(queries[(c+q)%len(queries)]); err != nil {
						errCh <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return nil, err
		}
		wall := time.Since(start)
		qps := float64(nc*queriesPer) / wall.Seconds()
		if nc == clients[0] {
			base = qps
		}
		t.AddRow(nc, nc*queriesPer, wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", qps), fmt.Sprintf("%.1fx", qps/base))
	}
	t.Notes = append(t.Notes,
		"per-query component instances (sessions) run concurrently; reads take no locks (each runs at a snapshot), so they cannot conflict",
		"scaling flattens when all host cores are busy")
	return t, nil
}
