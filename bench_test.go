package prisma

// One benchmark per experiment of the reproduction suite (documented on
// the experiment functions in internal/experiments and in the README's
// "Experiment suite" section). Each wraps the corresponding experiment
// in quick mode so `go test -bench=.` regenerates every table;
// `cmd/prisma-bench` prints the full versions. Benchmarks log their
// tables once so benchmark output doubles as the experiment record.

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/server"
)

// runExperiment executes fn once per benchmark run and logs the table.
func runExperiment(b *testing.B, fn func(bool) (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb, err := fn(true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tb)
		}
	}
}

// BenchmarkE1NetworkThroughput — §3.2: up to 20k packets (256 bit)/s/PE.
func BenchmarkE1NetworkThroughput(b *testing.B) {
	runExperiment(b, experiments.E1NetworkThroughput)
}

// BenchmarkE2ParallelSpeedup — §2.1/§2.2: fragment-parallel response time.
func BenchmarkE2ParallelSpeedup(b *testing.B) {
	runExperiment(b, experiments.E2ParallelSpeedup)
}

// BenchmarkE3MainMemoryVsDisk — §2.1: main memory as primary storage.
func BenchmarkE3MainMemoryVsDisk(b *testing.B) {
	runExperiment(b, experiments.E3MainMemoryVsDisk)
}

// BenchmarkE4CompiledVsInterpreted — §2.5: the OFM expression compiler.
func BenchmarkE4CompiledVsInterpreted(b *testing.B) {
	runExperiment(b, experiments.E4CompiledVsInterpreted)
}

// BenchmarkE5TransitiveClosure — §2.3/§2.5: recursive query evaluation.
func BenchmarkE5TransitiveClosure(b *testing.B) {
	runExperiment(b, experiments.E5TransitiveClosure)
}

// BenchmarkE6MultiQueryThroughput — §2.2: inter-query parallelism.
func BenchmarkE6MultiQueryThroughput(b *testing.B) {
	runExperiment(b, experiments.E6MultiQueryThroughput)
}

// BenchmarkE7Fragmentation — §2.2/§2.5: fragmentation strategies.
func BenchmarkE7Fragmentation(b *testing.B) {
	runExperiment(b, experiments.E7Fragmentation)
}

// BenchmarkE8RecoveryOverhead — §3.2: stable storage and recovery.
func BenchmarkE8RecoveryOverhead(b *testing.B) {
	runExperiment(b, experiments.E8RecoveryOverhead)
}

// BenchmarkE9OptimizerAblation — §2.4: the knowledge-based optimizer.
func BenchmarkE9OptimizerAblation(b *testing.B) {
	runExperiment(b, experiments.E9OptimizerAblation)
}

// BenchmarkE10Allocation — §3.2: central resource management.
func BenchmarkE10Allocation(b *testing.B) {
	runExperiment(b, experiments.E10Allocation)
}

// BenchmarkE13Streaming — chunked result streaming vs single-frame
// materialization: time-to-first-tuple and peak frame size over TCP.
func BenchmarkE13Streaming(b *testing.B) {
	runExperiment(b, experiments.E13Streaming)
}

// BenchmarkE14PipelinedThroughput — statement pipelining over TCP:
// windows of point queries amortize the round trip; replies coalesce.
func BenchmarkE14PipelinedThroughput(b *testing.B) {
	runExperiment(b, experiments.E14PipelinedThroughput)
}

// BenchmarkE15MultiJoinParallelism — the partitioned dataflow executor
// on a 3-table star join + GROUP BY, central vs exchange-based.
func BenchmarkE15MultiJoinParallelism(b *testing.B) {
	runExperiment(b, experiments.E15MultiJoinParallelism)
}

// BenchmarkE17Crashpoints — the fault-injection sweep: one injected
// crash per registered point, recovery audited for crash consistency.
func BenchmarkE17Crashpoints(b *testing.B) {
	runExperiment(b, experiments.E17Crashpoints)
}

// BenchmarkE18Replication — WAL-shipping read replicas: read capacity
// vs replica count, replication lag, and the audited failover cell.
func BenchmarkE18Replication(b *testing.B) {
	runExperiment(b, experiments.E18Replication)
}

// BenchmarkE19Overload — the multi-tenant front door under ~4x
// capacity: calibrated goodput, bounded admitted p99, fair sharing,
// retryable sheds.
func BenchmarkE19Overload(b *testing.B) {
	runExperiment(b, experiments.E19Overload)
}

// BenchmarkE20Vectorized — columnar batch execution over the OFM column
// caches vs the tuple-at-a-time executor: filter-scan selectivity
// sweep, join, and grouped aggregation, medians of interleaved runs.
func BenchmarkE20Vectorized(b *testing.B) {
	runExperiment(b, experiments.E20Vectorized)
}

// ---------- micro-benchmarks on the public API ----------

// benchDB builds a loaded database once per benchmark.
func benchDB(b *testing.B, frags int) (*DB, *Session) {
	b.Helper()
	db, err := Open(Config{NumPEs: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	s := db.Session()
	if _, err := s.Exec(fmt.Sprintf(`CREATE TABLE emp (id INT, dept VARCHAR, salary INT, PRIMARY KEY (id))
		FRAGMENT BY HASH(id) INTO %d FRAGMENTS`, frags)); err != nil {
		b.Fatal(err)
	}
	depts := []string{"eng", "ops", "hr", "sales"}
	tuples := make([]Tuple, 10000)
	for i := range tuples {
		tuples[i] = Tuple{NewInt(int64(i)), NewString(depts[i%4]), NewInt(int64(i % 100000))}
	}
	if err := db.LoadTable("emp", tuples); err != nil {
		b.Fatal(err)
	}
	return db, s
}

// BenchmarkPointQuery measures a pruned single-fragment point lookup.
func BenchmarkPointQuery(b *testing.B) {
	_, s := benchDB(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := `SELECT * FROM emp WHERE id = ` + strconv.Itoa(i%10000)
		if _, err := s.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedPointQuery measures the prepared point-query fast
// path: parse/optimize amortized at Prepare, execution via index probe.
func BenchmarkPreparedPointQuery(b *testing.B) {
	_, s := benchDB(b, 16)
	ps, err := s.Prepare(`SELECT * FROM emp WHERE id = ?`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.QueryPrepared(ps, NewInt(int64(i%10000))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetriedPointRoundTrip measures the call shape the repository
// benchmark drives and E14 does not: a prepared point SELECT over
// loopback TCP, each execution wrapped in client.Retry — so a cost in
// the retry wrapper (it once seeded a PRNG per call, more CPU than the
// round trip itself) shows here and not only in benchmark/.
func BenchmarkRetriedPointRoundTrip(b *testing.B) {
	db, _ := benchDB(b, 16)
	srv, err := server.New(server.Config{Engine: db.Engine()})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Serve(l); close(done) }()
	b.Cleanup(func() { srv.Close(); <-done })
	c, err := client.Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	st, err := c.Prepare(`SELECT * FROM emp WHERE id = ?`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := client.Retry(func() error {
			res, err := st.Exec(i % 10000)
			if err == nil && res.Rel.Len() != 1 {
				err = fmt.Errorf("rows = %d", res.Rel.Len())
			}
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupByQuery measures a fragment-parallel aggregation.
func BenchmarkGroupByQuery(b *testing.B) {
	_, s := benchDB(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(`SELECT dept, COUNT(*) AS n, AVG(salary) AS mean FROM emp GROUP BY dept`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertTxn measures single-row transactional inserts (2PC +
// WAL force per statement).
func BenchmarkInsertTxn(b *testing.B) {
	db, _ := benchDB(b, 16)
	s := db.Session()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf(`INSERT INTO emp VALUES (%d, 'x', 1)`, 100000+i)
		if _, err := s.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentReaders measures shared-lock read scaling.
func BenchmarkConcurrentReaders(b *testing.B) {
	db, _ := benchDB(b, 16)
	b.ResetTimer()
	var wg sync.WaitGroup
	workers := 8
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.Session()
			defer s.Close()
			for i := 0; i < per; i++ {
				if _, err := s.Query(`SELECT COUNT(*) AS n FROM emp WHERE salary > 50000`); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkDatalogAncestor measures recursive PRISMAlog evaluation.
func BenchmarkDatalogAncestor(b *testing.B) {
	db, err := Open(Config{NumPEs: 16})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	s := db.Session()
	if _, err := s.Exec(`CREATE TABLE edge (src INT, dst INT) FRAGMENT BY HASH(src) INTO 4 FRAGMENTS`); err != nil {
		b.Fatal(err)
	}
	var tuples []Tuple
	for i := int64(0); i < 200; i++ {
		tuples = append(tuples, Tuple{NewInt(i), NewInt(i + 1)})
	}
	if err := db.LoadTable("edge", tuples); err != nil {
		b.Fatal(err)
	}
	if err := db.RegisterRules(`
		reach(X, Y) :- edge(X, Y).
		reach(X, Y) :- edge(X, Z), reach(Z, Y).
	`); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := s.DatalogQuery(`reach(0, X)`)
		if err != nil {
			b.Fatal(err)
		}
		if rel.Len() != 200 {
			b.Fatalf("answers = %d", rel.Len())
		}
	}
}
