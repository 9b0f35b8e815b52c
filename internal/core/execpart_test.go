package core

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/value"
)

// setupStar creates a 3-table star schema sized so the optimizer picks
// repartition joins (every input estimate clears the 2000-row
// threshold) and loads identical data into the given engines.
func setupStar(t *testing.T, engines ...*Engine) {
	t.Helper()
	ddl := []string{
		`CREATE TABLE fact (id INT, a INT, b INT, amt INT, PRIMARY KEY (id))
			FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`,
		`CREATE TABLE dim1 (id INT, w INT, PRIMARY KEY (id))
			FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`,
		`CREATE TABLE dim2 (id INT, cat VARCHAR, PRIMARY KEY (id))
			FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`,
		// One fragment, under the optimizer's 512-row broadcast threshold.
		`CREATE TABLE small (id INT, v INT, PRIMARY KEY (id))`,
	}
	const dimRows = 2200
	const factRows = 4400
	const smallRows = 300
	cats := []string{"red", "green", "blue", "gray"}
	var d1, d2, f, sm []string
	for i := 0; i < dimRows; i++ {
		d1 = append(d1, fmt.Sprintf("(%d, %d)", i, i%7))
		d2 = append(d2, fmt.Sprintf("(%d, '%s')", i, cats[i%len(cats)]))
	}
	for i := 0; i < smallRows; i++ {
		sm = append(sm, fmt.Sprintf("(%d, %d)", i, i%5))
	}
	for i := 0; i < factRows; i++ {
		f = append(f, fmt.Sprintf("(%d, %d, %d, %d)", i, i%dimRows, (i*13)%dimRows, i%97))
	}
	for _, e := range engines {
		s := e.NewSession()
		for _, stmt := range ddl {
			mustExec(t, s, stmt)
		}
		mustExec(t, s, "INSERT INTO dim1 VALUES "+strings.Join(d1, ", "))
		mustExec(t, s, "INSERT INTO dim2 VALUES "+strings.Join(d2, ", "))
		mustExec(t, s, "INSERT INTO fact VALUES "+strings.Join(f, ", "))
		mustExec(t, s, "INSERT INTO small VALUES "+strings.Join(sm, ", "))
	}
}

// centralEngine builds an engine whose optimizer never parallelizes:
// every join is JoinCentral and every aggregate/sort/distinct runs at
// the coordinator — the reference the partitioned executor must match.
func centralEngine(t *testing.T) *Engine {
	t.Helper()
	noPar := optimizer.Options{Pushdown: true, JoinOrder: true, CSE: true, PointProbe: true}
	e, err := New(Config{NumPEs: 16, Optimizer: &noPar})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// partitionedPlanQueries are the differential suite: every shape the
// partitioned dataflow path must answer identically to the central
// executor — joins of joins, operators between scan and join, grouped
// and global aggregation over joins, parallel sort/distinct, swapped
// builds and residual predicates.
var partitionedPlanQueries = []string{
	// 1: plain join of two large tables (repartition, swapped build).
	`SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.a = d1.id`,
	// 2: join of joins (3-table star).
	`SELECT f.id, d1.w, d2.cat FROM fact f
		JOIN dim1 d1 ON f.a = d1.id JOIN dim2 d2 ON f.b = d2.id`,
	// 3: grouped aggregation over a join of joins.
	`SELECT d2.cat, COUNT(*) AS n, SUM(f.amt) AS total FROM fact f
		JOIN dim1 d1 ON f.a = d1.id JOIN dim2 d2 ON f.b = d2.id
		GROUP BY d2.cat`,
	// 4: global aggregate (no GROUP BY) over a join.
	`SELECT COUNT(*) AS n, MIN(f.amt) AS lo, AVG(d1.w) AS mean
		FROM fact f JOIN dim1 d1 ON f.a = d1.id`,
	// 5: selection and projection between scan and join.
	`SELECT f.id, f.amt + d1.w AS score FROM fact f
		JOIN dim1 d1 ON f.a = d1.id
		WHERE f.amt > 40 AND d1.w < 5`,
	// 6: residual (cross-table non-equi) predicate on the join.
	`SELECT f.id FROM fact f JOIN dim1 d1 ON f.a = d1.id
		WHERE f.amt > d1.w * 10`,
	// 7: ORDER BY over a join (per-partition sort + k-way merge).
	`SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.a = d1.id
		WHERE f.amt > 80 ORDER BY f.id DESC`,
	// 8: DISTINCT over a projected join.
	`SELECT DISTINCT d2.cat FROM fact f JOIN dim2 d2 ON f.b = d2.id`,
	// 9: HAVING over a partitioned grouped aggregate.
	`SELECT d2.cat, COUNT(*) AS n FROM fact f JOIN dim2 d2 ON f.b = d2.id
		GROUP BY d2.cat HAVING n > 10`,
	// 10: ORDER BY + LIMIT over an aggregate over a join.
	`SELECT d2.cat, SUM(f.amt) AS total FROM fact f JOIN dim2 d2 ON f.b = d2.id
		GROUP BY d2.cat ORDER BY total DESC LIMIT 2`,
	// 11: self-join over CSE-shared scans.
	`SELECT COUNT(*) AS n FROM fact x JOIN fact y ON x.id = y.id`,
	// 12: broadcast join — the small side's hash table, built once, probed
	// by every slot of the big side.
	`SELECT f.id, s.v FROM fact f JOIN small s ON f.a = s.id WHERE f.amt > 30`,
	// 13: computed projection between a repartitioned join and a parallel
	// sort (this SQL has no derived tables, so a Project never sits below a
	// join; this is the nearest shape: new vectors mid-pipeline).
	`SELECT f.id, f.amt + d1.w AS score FROM fact f JOIN dim1 d1 ON f.a = d1.id
		WHERE f.amt > 60 ORDER BY f.id`,
	// 14: CSE-shared self-join feeding hash exchanges.
	`SELECT x.id, y.id FROM fact x JOIN fact y ON x.a = y.b`,
	// 15: colocated join with one side answered by the pk hash index (a
	// leaf's tuples) and pruned to one fragment (misaligned with the other
	// side).
	`SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.id = d1.id WHERE f.amt > 40 AND d1.id = 7`,
	// 16: grouped aggregate pushed down onto the fragments, every function.
	// Inside a transaction with a pending write that fragment's scan answers
	// with tuples, its siblings' with batches over their column caches.
	`SELECT a, COUNT(*) AS n, SUM(amt) AS s, MIN(amt) AS lo, MAX(b) AS hi, AVG(amt) AS m
		FROM fact WHERE amt < 80 GROUP BY a`,
	// 17: ORDER BY over a partitioned aggregate (its batch output sorted by
	// permuting the selection).
	`SELECT a, COUNT(*) AS n, SUM(amt) AS s FROM fact GROUP BY a ORDER BY s DESC, a LIMIT 50`,
	// 18: broadcast of a fragmented side — dim1's 4 fragments, filtered to
	// an estimated 239 rows, are gathered and copied to fact's 4 partitions
	// (2·239·4 < 4400) instead of fact being repartitioned. Inside the
	// transaction below dim1 has a pending write, so one of the gathered
	// slots holds tuples.
	broadcastFragmentedQuery,
}

const broadcastFragmentedQuery = `SELECT f.id, f.amt, d1.w FROM fact f JOIN dim1 d1 ON f.a = d1.id WHERE d1.w = 3`

// sameResults runs every query on both sessions and requires identical
// result sets (order-sensitive where the query orders).
func sameResults(t *testing.T, queries []string, aName string, a *Session, bName string, b *Session) {
	t.Helper()
	for i, q := range queries {
		ra, err := a.Query(q)
		if err != nil {
			t.Fatalf("query %d %s: %v", i+1, aName, err)
		}
		rb, err := b.Query(q)
		if err != nil {
			t.Fatalf("query %d %s: %v", i+1, bName, err)
		}
		sameRows(t, q, fmt.Sprintf("query %d: %s against %s", i+1, aName, bName), ra, rb)
	}
}

// sameRows requires got to hold want's rows: the same bag, and where q
// orders, in the same order.
func sameRows(t *testing.T, q, what string, got, want *value.Relation) {
	t.Helper()
	if !strings.Contains(strings.ToUpper(q), "ORDER BY") {
		if !got.SameBag(want) {
			t.Errorf("%s: results differ (%d vs %d rows)", what, got.Len(), want.Len())
		}
		return
	}
	if got.Len() != want.Len() {
		t.Errorf("%s: %d rows vs %d", what, got.Len(), want.Len())
		return
	}
	for r := range want.Tuples {
		if !value.EqualTuples(got.Tuples[r], want.Tuples[r]) {
			t.Errorf("%s row %d: %v != %v", what, r, got.Tuples[r], want.Tuples[r])
			return
		}
	}
}

// TestPartitionedMatchesCentral runs the differential suite on the
// exchange-based plans and on a central-only engine over identical data
// and requires identical result sets — then again inside a transaction
// that has updated a row of fact and one of dim1, where the fragments
// holding the pending writes fold them into their batches and every query
// must see them.
func TestPartitionedMatchesCentral(t *testing.T) {
	ePar := newEngine(t)
	eCen := centralEngine(t)
	setupStar(t, ePar, eCen)
	sPar, sCen := ePar.NewSession(), eCen.NewSession()
	sameResults(t, partitionedPlanQueries, "partitioned", sPar, "central", sCen)

	for _, s := range []*Session{sPar, sCen} {
		mustExec(t, s, `BEGIN`)
		mustExec(t, s, `UPDATE fact SET amt = 1000 WHERE id = 5`)
		mustExec(t, s, `UPDATE dim1 SET w = 3 WHERE id = 11`)
	}
	sameResults(t, partitionedPlanQueries, "partitioned in txn", sPar, "central in txn", sCen)
	own, err := sPar.Query(`SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.a = d1.id WHERE f.amt > 900`)
	if err != nil {
		t.Fatal(err)
	}
	if own.Len() != 1 || own.Tuples[0][0].Int() != 5 {
		t.Errorf("join inside the transaction does not see its own pending write: %v", own.Tuples)
	}
	for _, s := range []*Session{sPar, sCen} {
		mustExec(t, s, `ROLLBACK`)
	}
}

// TestExplainShowsPartitionedPlan proves via EXPLAIN that a join of
// joins with aggregation runs fully partitioned: Exchange nodes are in
// the tree, joins are repartitioned, the aggregate is pushed down, and
// no central join remains.
func TestExplainShowsPartitionedPlan(t *testing.T) {
	e := newEngine(t)
	setupStar(t, e)
	s := e.NewSession()
	res := mustExec(t, s, `EXPLAIN SELECT d2.cat, COUNT(*) AS n FROM fact f
		JOIN dim1 d1 ON f.a = d1.id JOIN dim2 d2 ON f.b = d2.id
		GROUP BY d2.cat`)
	if res.Rel == nil || res.Rel.Len() == 0 {
		t.Fatal("EXPLAIN produced no rows")
	}
	if got := res.Rel.Schema.Len(); got != 1 {
		t.Fatalf("EXPLAIN schema has %d columns", got)
	}
	var b strings.Builder
	for _, row := range res.Rel.Tuples {
		b.WriteString(row[0].Str())
		b.WriteByte('\n')
	}
	planStr := b.String()
	for _, want := range []string{"Exchange(hash", "method=repartition", "pushdown=true"} {
		if !strings.Contains(planStr, want) {
			t.Errorf("plan lacks %q:\n%s", want, planStr)
		}
	}
	if strings.Contains(planStr, "method=central") {
		t.Errorf("plan still contains a central join:\n%s", planStr)
	}

	// A fragmented side small enough is broadcast, not repartitioned.
	plan := mustExec(t, s, "EXPLAIN "+broadcastFragmentedQuery).Plan
	if !strings.Contains(plan, "method=broadcast") || !regexp.MustCompile(`Exchange\(broadcast\) est=\d+\n\s*Scan\(dim1`).MatchString(plan) {
		t.Errorf("fragmented dim1 not broadcast:\n%s", plan)
	}
}

// TestExplainTakesNoLocks runs EXPLAIN on a table whose fragments are
// all exclusively locked by another transaction; it must return
// immediately instead of queueing on the lock table.
func TestExplainTakesNoLocks(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE emp SET salary = salary + 1`) // X-locks every fragment
	s2 := e.NewSession()
	res, err := s2.Exec(`EXPLAIN SELECT e.id FROM emp e JOIN dept d ON e.dept = d.name`)
	if err != nil {
		t.Fatalf("EXPLAIN blocked or failed: %v", err)
	}
	if res.Rel == nil || res.Rel.Len() == 0 {
		t.Fatal("EXPLAIN produced no plan")
	}
	mustExec(t, s, `ROLLBACK`)
}

// TestExplainAccessAnnotations pins the EXPLAIN contract: SELECT plans
// carry the snapshot-read access line under MVCC, DML statements report
// the locked-write discipline, and nested EXPLAIN stays rejected.
func TestExplainAccessAnnotations(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	res, err := s.Exec(`EXPLAIN SELECT * FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "snapshot read (no locks)") {
		t.Fatalf("EXPLAIN SELECT plan lacks snapshot-read access line:\n%s", res.Plan)
	}
	res, err = s.Exec(`EXPLAIN INSERT INTO dept VALUES ('x', 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "locked write (2PL exclusive + first-committer-wins)") {
		t.Fatalf("EXPLAIN INSERT plan lacks locked-write access line:\n%s", res.Plan)
	}
	if _, err := s.Exec(`EXPLAIN EXPLAIN SELECT * FROM emp`); err == nil {
		t.Fatal("nested EXPLAIN succeeded")
	}
}

// TestSharedScanCacheNotMutated is the CSE aliasing regression suite:
// execScan hands out relations whose Tuples alias the per-query cache
// (and the fragment stores). No downstream operator — the swapped-join
// restore, in-place projection batches, or the partition splitters —
// may mutate those tuples when one shared scan feeds two plan arms.
func TestSharedScanCacheNotMutated(t *testing.T) {
	ePar := newEngine(t)
	eCen := centralEngine(t)
	setupStar(t, ePar, eCen)
	sPar, sCen := ePar.NewSession(), eCen.NewSession()

	// Snapshot the base table before any shared-scan query runs.
	before, err := sPar.Query(`SELECT * FROM fact`)
	if err != nil {
		t.Fatal(err)
	}
	beforeCopy := before.Clone()

	queries := []string{
		// Self-join: both arms share one scan; the join output is swapped
		// or not depending on estimates, and the partition splitters
		// redistribute the cached tuples into exchange buckets.
		`SELECT x.amt, y.amt FROM fact x JOIN fact y ON x.id = y.id WHERE x.amt > 50`,
		// Shared scan feeding a projection arm (in-place ApplyBatch) and
		// a join arm at once.
		`SELECT x.id + 1 AS next, y.b FROM fact x JOIN fact y ON x.id = y.id`,
		// Shared scan under aggregation over the join.
		`SELECT COUNT(*) AS n, SUM(x.amt) AS s FROM fact x JOIN fact y ON x.id = y.id`,
	}
	for i, q := range queries {
		a, err := sPar.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i+1, err)
		}
		b, err := sCen.Query(q)
		if err != nil {
			t.Fatalf("query %d central: %v", i+1, err)
		}
		if !a.SameBag(b) {
			t.Errorf("query %d: shared-scan result differs from central (%d vs %d rows)", i+1, a.Len(), b.Len())
		}
	}

	// The base table must be bit-identical to the pre-query snapshot: any
	// in-place mutation of cached/stored tuples would show here.
	after, err := sPar.Query(`SELECT * FROM fact`)
	if err != nil {
		t.Fatal(err)
	}
	if !after.SameBag(beforeCopy) {
		t.Fatal("base table changed after read-only shared-scan queries")
	}
	// Re-running the first query must still agree with central (a
	// mutated CSE cache inside one statement would already have tripped
	// the SameBag check above; this guards cross-statement state).
	a, err := sPar.Query(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := sCen.Query(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !a.SameBag(b) {
		t.Error("rerun of shared-scan query diverged")
	}
}

// TestPartitionedConcurrentSessions hammers the partitioned paths from
// concurrent sessions (run under -race in CI): joins of joins, grouped
// aggregates and sorts all exercising exchanges at once.
func TestPartitionedConcurrentSessions(t *testing.T) {
	e := newEngine(t)
	setupStar(t, e)
	queries := []string{
		partitionedPlanQueries[1],
		partitionedPlanQueries[2],
		partitionedPlanQueries[6],
		partitionedPlanQueries[10],
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for i := 0; i < 6; i++ {
				if _, err := s.Query(queries[(w+i)%len(queries)]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}
