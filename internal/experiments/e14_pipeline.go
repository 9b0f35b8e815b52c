package experiments

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fragment"
	"repro/internal/server"
	"repro/internal/value"
)

// E14PipelinedThroughput measures statement pipelining over TCP: the
// PR-2 baselines showed point queries ~5x faster in-process than over
// the wire, because a request/reply protocol pays one loopback round
// trip — two syscalls each way — per statement. With pipelining a
// client ships a window of statements in one write and the server
// coalesces the window's replies into (ideally) one flush, so the
// round-trip cost amortizes across the window.
//
// The grid is pipeline depth d ∈ {1,4,16,64} × N ∈ {1,4,16} clients,
// all running point SELECTs on the primary key. Depth 1
// is the unpipelined baseline (a window of one is exactly the old
// round trip). Reported per row: statements/sec, p50/p99 *window*
// latency (what a caller awaiting that window observes), and
// allocations per statement across client and server (both live in
// this process), the metric the frame-buffer pooling targets.
func E14PipelinedThroughput(quick bool) (*Table, error) {
	rows := 4000
	stmtsPer := 768
	depths := []int{1, 4, 16, 64}
	clients := []int{1, 4, 16}
	numPEs := 64
	if quick {
		rows = 1000
		stmtsPer = 192
		numPEs = 16
	}

	eng, err := core.New(core.Config{NumPEs: numPEs})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	schema := value.MustSchema("id", "INT", "region", "VARCHAR", "balance", "INT")
	if err := eng.CreateTable("acct", schema,
		&fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 8}, []int{0}); err != nil {
		return nil, err
	}
	regions := []string{"eu", "us", "apac", "latam"}
	tuples := make([]value.Tuple, rows)
	for i := range tuples {
		tuples[i] = value.NewTuple(
			value.NewInt(int64(i)),
			value.NewString(regions[i%len(regions)]),
			value.NewInt(1000),
		)
	}
	if err := eng.LoadTable("acct", tuples); err != nil {
		return nil, err
	}

	srv, err := server.New(server.Config{Engine: eng, MaxConns: 64})
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

	t := &Table{
		ID: "E14",
		Title: fmt.Sprintf("pipelined point queries over TCP, %d statements/client on a %d-row relation over 8 fragments (%d PEs)",
			stmtsPer, rows, numPEs),
		Header: []string{"clients", "depth", "statements", "wall time", "stmts/sec", "p50 window", "p99 window", "allocs/op"},
		Notes: []string{
			"workload: SELECT * FROM acct WHERE id = k point queries; depth = statements per pipelined window (1 = plain round trips)",
			"window latency is the client-observed time to ship a window and collect all its replies",
			"allocs/op counts mallocs per statement across client and server (same process)",
		},
	}

	for _, nc := range clients {
		for _, depth := range depths {
			lats := make([][]time.Duration, nc)
			total := 0
			errCh := make(chan error, nc)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			var wg sync.WaitGroup
			start := time.Now()
			for c := 0; c < nc; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					ls, err := runE14Client(addr, c, nc, depth, rows, stmtsPer)
					if err != nil {
						errCh <- fmt.Errorf("client %d/%d depth %d: %w", c, nc, depth, err)
						return
					}
					lats[c] = ls
				}(c)
			}
			wg.Wait()
			wall := time.Since(start)
			runtime.ReadMemStats(&m1)
			select {
			case err := <-errCh:
				return nil, err
			default:
			}
			var all []time.Duration
			for _, ls := range lats {
				all = append(all, ls...)
				total += len(ls) // one latency sample per window
			}
			stmts := nc * stmtsPer
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			t.AddRow(
				nc,
				depth,
				stmts,
				wall.Round(time.Millisecond).String(),
				float64(stmts)/wall.Seconds(),
				percentile(all, 0.50).Round(time.Microsecond).String(),
				percentile(all, 0.99).Round(time.Microsecond).String(),
				fmt.Sprintf("%.0f", float64(m1.Mallocs-m0.Mallocs)/float64(stmts)),
			)
		}
	}
	return t, nil
}

// runE14Client opens one connection and runs its statements in
// pipelined windows of the given depth, returning one latency sample
// per window.
func runE14Client(addr string, id, nc, depth, rows, stmts int) ([]time.Duration, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	r := rand.New(rand.NewSource(int64(id)*6151 + int64(nc*depth)))
	lats := make([]time.Duration, 0, stmts/depth+1)
	p := c.Pipeline()
	for done := 0; done < stmts; {
		n := depth
		if rest := stmts - done; n > rest {
			n = rest
		}
		keys := make([]int, n)
		for i := 0; i < n; i++ {
			keys[i] = r.Intn(rows)
			p.Exec(fmt.Sprintf(`SELECT * FROM acct WHERE id = %d`, keys[i]))
		}
		start := time.Now()
		results, err := p.Run()
		if err != nil {
			return nil, err
		}
		lats = append(lats, time.Since(start))
		for i, res := range results {
			if res.Err != nil {
				return nil, res.Err
			}
			if res.Res.Rel == nil || res.Res.Rel.Len() != 1 {
				return nil, fmt.Errorf("point query for id %d returned %v", keys[i], res.Res.Rel)
			}
			if got := res.Res.Rel.Tuples[0][0].Int(); got != int64(keys[i]) {
				return nil, fmt.Errorf("window reply %d carries id %d, want %d (ordering broken)", i, got, keys[i])
			}
		}
		done += n
	}
	return lats, nil
}
