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

// rowEngine builds an engine with columnar execution forced off — the
// tuple-at-a-time reference the vectorized executor must match (and the
// E20 baseline configuration).
func rowEngine(t *testing.T) *Engine {
	t.Helper()
	off := false
	e, err := New(Config{NumPEs: 16, Vectorized: &off})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

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

// TestVectorizedMatchesRow is the tentpole differential: every plan
// shape in the PR-5 partitioned corpus plus the scan-heavy extensions
// must produce identical results on the columnar executor and on an
// engine with Vectorized=false, over identical data. Run under -race in
// CI alongside the rest of the package.
func TestVectorizedMatchesRow(t *testing.T) {
	eVec := newEngine(t) // vectorized defaults on
	eRow := rowEngine(t)
	setupStar(t, eVec, eRow)
	sVec, sRow := eVec.NewSession(), eRow.NewSession()
	queries := append(append([]string{}, partitionedPlanQueries...), vectorizedScanQueries...)
	sameResults(t, queries, "vectorized", sVec, "row", sRow)

	// Again inside a transaction with a pending write: the fragment holding
	// it answers with rows while its siblings stay columnar, so pushed-down
	// aggregates merge mixed partials and exchanges meet both forms.
	for _, s := range []*Session{sVec, sRow} {
		mustExec(t, s, `BEGIN`)
		mustExec(t, s, `UPDATE fact SET amt = 1000 WHERE id = 5`)
	}
	sameResults(t, queries, "vectorized in txn", sVec, "row in txn", sRow)
	for _, s := range []*Session{sVec, sRow} {
		mustExec(t, s, `ROLLBACK`)
	}
}

// TestVectorizedMatchesRowAfterWrites drives the column-cache
// invalidation through SQL: committed updates/deletes/inserts must be
// visible to the next vectorized scan, in-transaction reads must see
// their own uncommitted writes (the batch path declines to the row
// overlay), and both executors agree at every step.
func TestVectorizedMatchesRowAfterWrites(t *testing.T) {
	eVec := newEngine(t)
	eRow := rowEngine(t)
	setupStar(t, eVec, eRow)
	sVec, sRow := eVec.NewSession(), eRow.NewSession()

	const q = `SELECT a, COUNT(*) AS n, SUM(amt) AS s FROM fact WHERE amt > 20 GROUP BY a`
	check := func(step string) {
		t.Helper()
		a, err := sVec.Query(q)
		if err != nil {
			t.Fatalf("%s vectorized: %v", step, err)
		}
		b, err := sRow.Query(q)
		if err != nil {
			t.Fatalf("%s row: %v", step, err)
		}
		if !a.SameBag(b) {
			t.Errorf("%s: vectorized diverged (%d vs %d rows)", step, a.Len(), b.Len())
		}
	}
	check("before writes")
	for _, stmt := range []string{
		`UPDATE fact SET amt = amt + 100 WHERE amt < 10`,
		`DELETE FROM fact WHERE id >= 4300`,
		`INSERT INTO fact VALUES (9001, 1, 1, 55), (9002, 2, 2, 66)`,
	} {
		mustExec(t, sVec, stmt)
		mustExec(t, sRow, stmt)
		check(stmt)
	}

	// Inside an explicit transaction, reads must see the session's own
	// uncommitted writes; after rollback the committed image returns.
	mustExec(t, sVec, `BEGIN`)
	mustExec(t, sVec, `UPDATE fact SET amt = 0 WHERE id < 100`)
	in, err := sVec.Query(`SELECT COUNT(*) AS n FROM fact WHERE amt = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if in.Tuples[0][0].Int() < 100 {
		t.Errorf("in-txn read misses own writes: %v", in.Tuples)
	}
	mustExec(t, sVec, `ROLLBACK`)
	check("after rollback")
}

// TestExplainShowsVectorized pins the EXPLAIN contract: the execution
// line is the executor's own account of a dry run — fully columnar plans
// say so, a plan that meets row slots names the operators and what put
// the rows there, and explaining scans nothing and charges nothing.
func TestExplainShowsVectorized(t *testing.T) {
	eVec := newEngine(t)
	sVec := setupEmp(t, eVec)
	explain := func(s *Session, q string, want ...string) {
		t.Helper()
		clocks := s.e.m.TotalClock()
		plan := mustExec(t, s, "EXPLAIN "+q).Plan
		if after := s.e.m.TotalClock(); after != clocks {
			t.Errorf("EXPLAIN %s moved the simulated clocks by %v", q, after-clocks)
		}
		for _, w := range want {
			if !strings.Contains(plan, w) {
				t.Errorf("EXPLAIN %s lacks %q:\n%s", q, w, plan)
			}
		}
	}
	const grouped = `SELECT dept, COUNT(*) AS n FROM emp WHERE salary > 100 GROUP BY dept`
	explain(sVec, grouped, "execution: vectorized (columnar batches)")
	// The pk point probe is not a batch shape.
	explain(sVec, `SELECT * FROM emp WHERE id = 3`, "execution: row-at-a-time", "IndexProbe emp: index probe")

	eRow := rowEngine(t)
	explain(setupEmp(t, eRow), grouped, "execution: row-at-a-time", "Scan emp: config Vectorized=false")
	interpreted := false
	eInt, err := New(Config{NumPEs: 16, Compiled: &interpreted})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eInt.Close)
	explain(setupEmp(t, eInt), grouped, "execution: row-at-a-time", "Scan emp: interpreted")

	// The two statements a static walk over the plan got wrong, in both
	// directions. A central join gathers batches and joins them columnar
	// at the coordinator; a colocated join whose one side is answered by
	// the pk hash index runs its kernels on rows.
	eStar := newEngine(t)
	setupStar(t, eStar)
	s := eStar.NewSession()
	explain(s, `SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.a = d1.id WHERE f.amt > 40 AND d1.w < 5`,
		"method=central", "execution: vectorized (columnar batches)")
	explain(s, `SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.id = d1.id WHERE f.amt > 40 AND d1.id = 7`,
		"method=colocated", "execution: mixed", "Scan dim1: index probe", "Join: index probe")
	explain(s, `SELECT f.id, s.v FROM fact f JOIN small s ON f.a = s.id`, "execution: mixed", "Join: broadcast join")
	explain(s, `SELECT id, amt * 2 AS twice FROM fact`, "execution: mixed", "Project: computed projection")
	// Inside a transaction the fragment holding a pending write answers
	// with rows; the others stay columnar.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE fact SET amt = 0 WHERE id = 5`)
	explain(s, `SELECT id, amt FROM fact WHERE amt < 3`, "execution: mixed", "Scan fact: transaction overlay on 1/4 slots")
	explain(s, `SELECT a, COUNT(*) AS n FROM fact GROUP BY a`, "execution: mixed", "Aggregate: transaction overlay on 1/4 slots")
	mustExec(t, s, `ROLLBACK`)
	for _, table := range []string{"fact", "dim1", "small"} {
		if st, err := eStar.ColumnCacheStats(table); err != nil || st.FullBuilds != 0 {
			t.Errorf("EXPLAIN scanned %s: %+v, %v", table, st, err)
		}
	}
}

// TestVectorizedMemBudget: a column-cache build is this statement's
// materialization and must charge the tenant budget — even when the
// query's own result is tiny. The row engine under the same budget
// answers fine, so a pass here proves the build (not the result) was
// charged. After a committed write the scan is charged what it folds
// into the cache: next to nothing for one row, over budget for a rewrite
// of the table — never the whole image again.
func TestVectorizedMemBudget(t *testing.T) {
	eVec := newEngine(t)
	sVec := setupEmp(t, eVec)
	eRow := rowEngine(t)
	sRow := setupEmp(t, eRow)

	// One row out, whole table scanned: the row path materializes only
	// the ~75-byte result, the columnar path additionally builds ~2 KB of
	// column cache. A budget between the two separates them.
	const q = `SELECT id FROM emp WHERE salary = 570`
	sVec.SetMemBudget(512)
	sRow.SetMemBudget(512)
	if _, err := sVec.Query(q); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("vectorized scan under tiny budget err = %v, want ErrMemBudget", err)
	}
	if _, err := sRow.Query(q); err != nil {
		t.Fatalf("row scan under the same budget: %v", err)
	}
	// A sane budget admits the build; the warm cache then costs nothing.
	sVec.SetMemBudget(1 << 20)
	if _, err := sVec.Query(q); err != nil {
		t.Fatalf("vectorized scan under sane budget: %v", err)
	}
	sVec.SetMemBudget(512)
	if _, err := sVec.Query(q); err != nil {
		t.Fatalf("warm-cache scan re-charged the build: %v", err)
	}

	// One updated row: the scan that absorbs it stays inside the budget a
	// rebuild of any fragment would break.
	for _, s := range []*Session{sVec, sRow} {
		s.SetMemBudget(0)
		mustExec(t, s, `UPDATE emp SET dept = 'moved' WHERE id = 3`)
		s.SetMemBudget(512)
	}
	if _, err := sVec.Query(q); err != nil {
		t.Fatalf("scan after a one-row write charged more than the row: %v", err)
	}
	st, err := eVec.ColumnCacheStats("emp")
	if err != nil {
		t.Fatal(err)
	}
	if st.FullBuilds != 4 || st.CatchUps != 1 || st.RowsFolded != 2 {
		t.Errorf("cache counters after one absorbed update = %+v; want 4 builds (one per fragment), 1 catch-up of 2 entries", st)
	}
	// Every row updated: folding 60 new versions is this statement's
	// materialization too, and no longer fits.
	for _, s := range []*Session{sVec, sRow} {
		s.SetMemBudget(0)
		mustExec(t, s, `UPDATE emp SET dept = 'moved'`)
		s.SetMemBudget(512)
	}
	if _, err := sVec.Query(q); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("scan folding a whole-table rewrite err = %v, want ErrMemBudget", err)
	}
	if _, err := sRow.Query(q); err != nil {
		t.Fatalf("row scan under the same budget: %v", err)
	}
}

// TestVectorizedStreamScan drives the cursor's columnar leaf path: a
// streamed filter scan on the vectorized engine must deliver exactly
// the rows the row engine materializes.
func TestVectorizedStreamScan(t *testing.T) {
	eVec := newEngine(t)
	eRow := rowEngine(t)
	setupStar(t, eVec, eRow)
	sVec, sRow := eVec.NewSession(), eRow.NewSession()

	const q = `SELECT id, amt FROM fact WHERE amt > 60`
	want, err := sRow.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, err := sVec.Stream(q)
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
		t.Errorf("streamed vectorized scan = %d rows, row engine = %d", got.Len(), want.Len())
	}
}

// TestVectorizedConcurrentReadWrite hammers the column cache from
// concurrent readers while a writer keeps invalidating it (run under
// -race in CI): every read must still agree with a row engine that saw
// the same committed writes.
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
