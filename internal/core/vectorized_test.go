package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/value"
)

// vectorizedScanQueries extend the partitioned plan corpus with the
// scan-heavy shapes the columnar path owns end-to-end: filters over the
// column cache, computed projections, pushdown and partial aggregation,
// parallel sort/distinct directly over scans, and a row-fallback kernel
// (LIKE) inside an otherwise vectorized filter.
var vectorizedScanQueries = []string{
	`SELECT * FROM fact WHERE amt > 50`,
	`SELECT id, amt * 2 + 1 AS twice FROM fact WHERE amt > 90 OR amt < 3`,
	`SELECT COUNT(*) AS n, SUM(amt) AS s, MIN(amt) AS lo, MAX(amt) AS hi, AVG(amt) AS m FROM fact`,
	`SELECT a, COUNT(*) AS n, SUM(amt) AS s FROM fact WHERE amt < 80 GROUP BY a`,
	`SELECT DISTINCT cat FROM dim2`,
	`SELECT id, amt FROM fact WHERE amt > 90 ORDER BY id DESC LIMIT 10`,
	`SELECT cat FROM dim2 WHERE cat LIKE 'g%'`,
	`SELECT w FROM dim1 WHERE 3 < w`, // constant on the left of the comparison
}

// TestVectorizedMatchesOracle is the executor's differential: every plan
// shape in the partitioned corpus plus the scan-heavy extensions must
// produce what the tuple-at-a-time plan oracle computes from the same
// snapshot. Run under -race in CI alongside the rest of the package.
func TestVectorizedMatchesOracle(t *testing.T) {
	e := newEngine(t)
	setupStar(t, e)
	s := e.NewSession()
	queries := append(append([]string{}, partitionedPlanQueries...), vectorizedScanQueries...)
	sameAsOracle(t, queries, "vectorized", s, s)

	// Again inside a transaction with pending writes: the fragments holding
	// them answer with a dense copy of their cache rows and the pending
	// inserts, their siblings with selections over their caches, so
	// pushed-down aggregates merge partials of both kinds, exchanges meet
	// both, and a broadcast of dim1 gathers both.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE fact SET amt = 1000 WHERE id = 5`)
	mustExec(t, s, `UPDATE dim1 SET w = 3 WHERE id = 11`)
	sameAsOracle(t, queries, "vectorized in txn", s, s)
	mustExec(t, s, `ROLLBACK`)
}

// TestVectorizedMatchesOracleAfterWrites drives the column-cache
// invalidation through SQL: committed updates/deletes/inserts must be
// visible to the next vectorized scan, in-transaction reads must see
// their own uncommitted writes (folded into the fragment's batch), and
// the executor agrees with the oracle at every step.
func TestVectorizedMatchesOracleAfterWrites(t *testing.T) {
	e := newEngine(t)
	setupStar(t, e)
	s := e.NewSession()

	const q = `SELECT a, COUNT(*) AS n, SUM(amt) AS s FROM fact WHERE amt > 20 GROUP BY a`
	check := func(step string) {
		t.Helper()
		sameAsOracle(t, []string{q}, step, s, s)
	}
	check("before writes")
	for _, stmt := range []string{
		`UPDATE fact SET amt = amt + 100 WHERE amt < 10`,
		`DELETE FROM fact WHERE id >= 4300`,
		`INSERT INTO fact VALUES (9001, 1, 1, 55), (9002, 2, 2, 66)`,
	} {
		mustExec(t, s, stmt)
		check(stmt)
	}

	// Inside an explicit transaction, reads must see the session's own
	// uncommitted writes; after rollback the committed image returns.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE fact SET amt = 0 WHERE id < 100`)
	in, err := s.Query(`SELECT COUNT(*) AS n FROM fact WHERE amt = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if in.Tuples[0][0].Int() < 100 {
		t.Errorf("in-txn read misses own writes: %v", in.Tuples)
	}
	check("inside the transaction")
	mustExec(t, s, `ROLLBACK`)
	check("after rollback")
}

// TestExplainShowsVectorized pins the EXPLAIN contract: the execution
// line is the executor's own account of a dry run — every operator runs
// batches, the leaves that answer with tuples — the pk probe and a
// CSE-shared scan, never a fragment scan — are named, and explaining scans
// nothing and charges nothing.
func TestExplainShowsVectorized(t *testing.T) {
	eVec := newEngine(t)
	sVec := setupEmp(t, eVec)
	const vectorized = "execution: vectorized (columnar batches)\n"
	explain := func(s *Session, q string, want ...string) {
		t.Helper()
		clocks := s.e.m.TotalClock()
		plan := mustExec(t, s, "EXPLAIN "+q).Plan
		if after := s.e.m.TotalClock(); after != clocks {
			t.Errorf("EXPLAIN %s moved the simulated clocks by %v", q, after-clocks)
		}
		for _, w := range append(want, vectorized) {
			if !strings.Contains(plan, w) {
				t.Errorf("EXPLAIN %s lacks %q:\n%s", q, w, plan)
			}
		}
		// Only leaves answer with tuples; no operator runs on them.
		for _, line := range strings.Split(plan, "\n") {
			if rest, ok := strings.CutPrefix(line, "leaf tuples: "); ok {
				for _, leaf := range strings.Split(rest, "; ") {
					if !strings.HasPrefix(leaf, "Scan ") && !strings.HasPrefix(leaf, "IndexProbe ") {
						t.Errorf("EXPLAIN %s: %q is not a leaf:\n%s", q, leaf, plan)
					}
				}
			}
		}
	}
	noTuples := func(s *Session, q string, want ...string) {
		t.Helper()
		explain(s, q, want...)
		if plan := mustExec(t, s, "EXPLAIN "+q).Plan; strings.Contains(plan, "leaf tuples:") {
			t.Errorf("EXPLAIN %s names a leaf answering with tuples:\n%s", q, plan)
		}
	}
	const grouped = `SELECT dept, COUNT(*) AS n FROM emp WHERE salary > 100 GROUP BY dept`
	noTuples(sVec, grouped)
	// The pk point probe answers with tuples, which go to the root as they are.
	explain(sVec, `SELECT * FROM emp WHERE id = 3`, "leaf tuples: IndexProbe emp: index probe")

	// A central join gathers batches and joins them at the coordinator; a
	// colocated join whose one side the pk hash index answers gets that
	// side's probed rows as a batch too.
	eStar := newEngine(t)
	setupStar(t, eStar)
	s := eStar.NewSession()
	noTuples(s, `SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.a = d1.id WHERE f.amt > 40 AND d1.w < 5`, "method=central")
	noTuples(s, `SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.id = d1.id WHERE f.amt > 40 AND d1.id = 7`, "method=colocated")
	noTuples(s, `SELECT f.id, s.v FROM fact f JOIN small s ON f.a = s.id`, "method=broadcast")
	noTuples(s, `SELECT id, amt * 2 AS twice FROM fact`)
	noTuples(s, `SELECT id, amt FROM fact WHERE amt > 90 ORDER BY amt DESC, id LIMIT 5`, "Sort(", "Limit(5)")
	noTuples(s, `SELECT DISTINCT cat FROM dim2`, "Distinct")
	explain(s, `SELECT COUNT(*) AS n FROM fact x JOIN fact y ON x.id = y.id`, "leaf tuples: Scan fact: shared scan")
	// Inside a transaction the fragment holding a pending write folds it
	// into its batch like the others.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE fact SET amt = 0 WHERE id = 5`)
	noTuples(s, `SELECT id, amt FROM fact WHERE amt < 3`)
	noTuples(s, `SELECT a, COUNT(*) AS n FROM fact GROUP BY a`)
	mustExec(t, s, `ROLLBACK`)
	for _, table := range []string{"fact", "dim1", "small"} {
		if st, err := eStar.ColumnCacheStats(table); err != nil || st.FullBuilds != 0 {
			t.Errorf("EXPLAIN scanned %s: %+v, %v", table, st, err)
		}
	}
}

// TestVectorizedMemBudget: a column-cache build is this statement's
// materialization and must charge the tenant budget — even when the
// query's own result is tiny. After a committed write the scan is charged
// what it folds into the cache: next to nothing for one row, over budget
// for a rewrite of the table — never the whole image again.
func TestVectorizedMemBudget(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)

	// One row out, whole table scanned: the result is ~75 bytes, the
	// column cache the scan builds ~2 KB. A budget between the two
	// separates them.
	const q = `SELECT id FROM emp WHERE salary = 570`
	s.SetMemBudget(512)
	if _, err := s.Query(q); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("vectorized scan under tiny budget err = %v, want ErrMemBudget", err)
	}
	// A sane budget admits the build; the warm cache then costs nothing.
	s.SetMemBudget(1 << 20)
	if _, err := s.Query(q); err != nil {
		t.Fatalf("vectorized scan under sane budget: %v", err)
	}
	s.SetMemBudget(512)
	if _, err := s.Query(q); err != nil {
		t.Fatalf("warm-cache scan re-charged the build: %v", err)
	}

	// One updated row: the scan that absorbs it stays inside the budget a
	// rebuild of any fragment would break.
	s.SetMemBudget(0)
	mustExec(t, s, `UPDATE emp SET dept = 'moved' WHERE id = 3`)
	s.SetMemBudget(512)
	if _, err := s.Query(q); err != nil {
		t.Fatalf("scan after a one-row write charged more than the row: %v", err)
	}
	st, err := e.ColumnCacheStats("emp")
	if err != nil {
		t.Fatal(err)
	}
	if st.FullBuilds != 4 || st.CatchUps != 1 || st.RowsFolded != 2 {
		t.Errorf("cache counters after one absorbed update = %+v; want 4 builds (one per fragment), 1 catch-up of 2 entries", st)
	}
	// Every row updated: folding 60 new versions is this statement's
	// materialization too, and no longer fits.
	s.SetMemBudget(0)
	mustExec(t, s, `UPDATE emp SET dept = 'moved'`)
	s.SetMemBudget(512)
	if _, err := s.Query(q); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("scan folding a whole-table rewrite err = %v, want ErrMemBudget", err)
	}
}

// TestVectorizedStreamScan drives the cursor's columnar leaf path: a
// streamed filter scan must deliver exactly the rows the oracle computes.
func TestVectorizedStreamScan(t *testing.T) {
	e := newEngine(t)
	setupStar(t, e)
	s := e.NewSession()

	const q = `SELECT id, amt FROM fact WHERE amt > 60`
	want := oracleQuery(t, s, q)
	cur, _, err := s.Stream(q)
	if err != nil {
		t.Fatal(err)
	}
	if cur == nil {
		t.Fatal("SELECT did not stream")
	}
	got := value.NewRelation(cur.Schema())
	for {
		batch, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		got.Tuples = append(got.Tuples, batch.Tuples...)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if !got.SameBag(want) {
		t.Errorf("streamed vectorized scan = %d rows, oracle = %d", got.Len(), want.Len())
	}
}

// TestVectorizedSortDistinctBroadcastArena: the operators that last got a
// batch kernel — a sort and its merge of runs, LIMIT, DISTINCT, the
// broadcast join's probes, of a one-fragment side and of one gathered from
// its fragments — borrow from the statement's arena like the
// others. With released payloads poisoned their answers are the oracle's,
// in process, encoded for the wire and streamed, and nothing is still lent
// once the statement has returned or the cursor closed.
func TestVectorizedSortDistinctBroadcastArena(t *testing.T) {
	e := newEngine(t)
	setupStar(t, e)
	s := e.NewSession()
	lent := func(what, q string) {
		t.Helper()
		if n := value.ArenaLive(); n != 0 {
			t.Errorf("%s %s: %d arena payloads still lent", what, q, n)
		}
	}
	for _, q := range []string{
		`SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.a = d1.id WHERE f.amt > 80 ORDER BY f.id DESC LIMIT 25`,
		`SELECT a, COUNT(*) AS n FROM fact GROUP BY a ORDER BY n DESC, a LIMIT 7`,
		`SELECT DISTINCT d2.cat FROM fact f JOIN dim2 d2 ON f.b = d2.id`,
		`SELECT DISTINCT b FROM fact WHERE amt < 9`,
		`SELECT f.id, s.v FROM fact f JOIN small s ON f.a = s.id WHERE f.amt > 30`,
		`SELECT f.id, s.v FROM fact f JOIN small s ON f.a = s.id ORDER BY f.id LIMIT 40`,
		broadcastFragmentedQuery,
	} {
		sameAsOracle(t, []string{q}, "in process", s, s)
		lent("in process", q)
		want := mustExec(t, s, q).Rel
		res, err := s.ExecTo([]byte{}, q)
		if err != nil {
			t.Fatal(err)
		}
		var enc []byte
		for _, tup := range want.Tuples {
			enc = value.AppendTuple(enc, tup)
		}
		if res.Rows == nil || res.Rows.N != want.Len() || string(res.Rows.Bytes) != string(enc) {
			t.Errorf("encoded %s: the wire rows differ from the in-process result's encoding", q)
		}
		lent("encoded", q)
		cur, _, err := s.Stream(q)
		if err != nil {
			t.Fatal(err)
		}
		got := value.NewRelation(cur.Schema())
		for {
			rel, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if rel == nil {
				break
			}
			got.Append(rel.Tuples...)
		}
		sameRows(t, q, "streamed", got, want)
		lent("streamed", q)
	}
}

// TestVectorizedConcurrentReadWrite hammers the column cache from
// concurrent readers while a writer keeps invalidating it (run under
// -race in CI): every read must succeed.
func TestVectorizedConcurrentReadWrite(t *testing.T) {
	e := newEngine(t)
	setupStar(t, e)
	queries := []string{
		`SELECT COUNT(*) AS n FROM fact WHERE amt > 50`,
		`SELECT a, SUM(amt) AS s FROM fact WHERE amt < 90 GROUP BY a`,
		partitionedPlanQueries[0],
	}
	const readers = 3
	var wg sync.WaitGroup
	errs := make([]error, readers+1)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for i := 0; i < 8; i++ {
				if _, err := s.Query(queries[(w+i)%len(queries)]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := e.NewSession()
		defer s.Close()
		for i := 0; i < 8; i++ {
			if _, err := s.Exec(`UPDATE fact SET amt = amt + 1 WHERE id < 50`); err != nil {
				errs[readers] = err
				return
			}
		}
	}()
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}

// TestVectorizedSnapshotsSurviveSlotReuse is the engine-level check of the
// column cache's in-place patching: a writer rewrites enough rows that
// every fragment vacuums and refills slots many times over, while readers
// run vectorized scans whose batches live until their statement has
// materialized. A statement's snapshot pin must outlive its batches, so
// every read sees one committed state: all 4400 rows, and an amt total
// that is the initial one plus a whole number of 800-row increments. A
// value patched into a row some reader still selected would break the
// total (and trip the race detector, under which CI runs this).
func TestVectorizedSnapshotsSurviveSlotReuse(t *testing.T) {
	e := newEngine(t)
	setupStar(t, e)
	const rows, touched = 4400, 800
	base := int64(0)
	for i := 0; i < rows; i++ {
		base += int64(i % 97)
	}
	check := func(n, sum int64) error {
		if n != rows || sum < base || (sum-base)%touched != 0 {
			return fmt.Errorf("read saw %d rows, amt total %d (initial %d): not a committed state", n, sum, base)
		}
		return nil
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for i := 0; !stop.Load() && errs[w] == nil; i++ {
				if (w+i)%2 == 0 { // aggregate over unfiltered batches
					rel, err := s.Query(`SELECT COUNT(*) AS n, SUM(amt) AS s FROM fact`)
					if err == nil {
						err = check(rel.Tuples[0][0].Int(), rel.Tuples[0][1].Int())
					}
					errs[w] = err
					continue
				}
				// dense comparison filter, visibility applied to survivors
				rel, err := s.Query(`SELECT id, amt FROM fact WHERE amt >= 0`)
				if err == nil {
					var sum int64
					for _, tup := range rel.Tuples {
						sum += tup[1].Int()
					}
					err = check(int64(rel.Len()), sum)
				}
				errs[w] = err
			}
		}(w)
	}
	s := e.NewSession()
	defer s.Close()
	for i := 0; i < 30 && errs[2] == nil; i++ {
		_, errs[2] = s.Exec(`UPDATE fact SET amt = amt + 1 WHERE id < 800`)
	}
	stop.Store(true)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
	st, err := e.ColumnCacheStats("fact")
	if err != nil {
		t.Fatal(err)
	}
	if st.CatchUps == 0 {
		t.Errorf("column caches never caught up with the writer: %+v", st)
	}
	// 30 updates of 800 rows append 24 000 versions unless vacuumed slots
	// are refilled in place; a cache that stayed under three times the
	// loaded image (48 bytes a row) proves the reuse path ran.
	if st.ResidentBytes > 3*rows*48 {
		t.Errorf("column caches grew to %d bytes: vacuumed slots were not reused", st.ResidentBytes)
	}
}
