package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// groupJoinQueries are aggregates the optimizer marks group-join: each
// slot of fact folds its probe matches straight into the groups of the
// broadcast side — small's 300 rows, dim1 filtered to one w, dim2 to one
// cat — with no join output. They cover a grouped and a global aggregate,
// every function, duplicate build keys (small.v), a string group key and no
// match at all.
var groupJoinQueries = []string{
	`SELECT s.v, COUNT(*) AS n, SUM(f.amt) AS t, AVG(f.amt) AS m, MIN(f.b) AS lo, MAX(f.amt) AS hi
		FROM fact f JOIN small s ON f.a = s.id GROUP BY s.v`,
	`SELECT COUNT(*) AS n FROM fact f JOIN small s ON f.a = s.id WHERE f.amt < 48`,
	`SELECT d1.w, COUNT(*) AS n, SUM(f.amt) AS s FROM fact f JOIN dim1 d1 ON f.a = d1.id WHERE d1.w = 3 GROUP BY d1.w`,
	`SELECT s.id, COUNT(*) AS n, MAX(f.id) AS hi FROM fact f JOIN small s ON f.b = s.v GROUP BY s.id`,
	`SELECT d2.cat, d2.id, COUNT(*) AS n, SUM(f.amt) AS s FROM fact f JOIN dim2 d2 ON f.b = d2.id WHERE d2.cat = 'red' GROUP BY d2.cat, d2.id`,
	`SELECT COUNT(*) AS n, MIN(f.amt) AS lo, AVG(f.amt) AS m FROM fact f JOIN small s ON f.a = s.id WHERE f.amt > 500`,
}

// TestGroupJoinKeepsCharges: a group-join makes no join output, but the
// simulated machine must not be able to tell — every PE's clock, the bytes
// between PEs and the reported response time of each groupJoinQueries
// statement are those of the parent commit, which joined and then
// aggregated the join's output (groupJoinGolden: recorded there, the same
// over 3 runs at -cpu 1, 2 and 4 and under -race).
func TestGroupJoinKeepsCharges(t *testing.T) {
	e := newEngine(t)
	setupStar(t, e)
	s := e.NewSession()
	var got []charge
	for _, q := range groupJoinQueries {
		got = append(got, charged(e, func() time.Duration { return mustExec(t, s, q).SimTime }))
	}
	checkCharges(t, "group-join", got, groupJoinGolden)
}

var groupJoinGolden = []charge{
	{[]int64{0, 173554400, 137524999, 154855600, 172155600, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 52440, 173554400},
	{[]int64{0, 134602400, 99774999, 117025600, 134355600, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 50520, 134602400},
	{[]int64{0, 190326599, 153705598, 171820199, 190054199, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 66184, 190326599},
	{[]int64{0, 186263199, 121284999, 144135600, 152915600, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 80640, 186263199},
	{[]int64{0, 353485999, 232084200, 259578799, 290596799, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 182490, 353485999},
	{[]int64{0, 114506000, 79602999, 96933600, 114233600, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 50664, 114506000},
}

// TestVectorizedMatchesOracle is the executor's differential: every plan
// shape in the partitioned corpus plus the scan-heavy extensions must
// produce what the tuple-at-a-time plan oracle computes from the same
// snapshot. Run under -race in CI alongside the rest of the package.
func TestVectorizedMatchesOracle(t *testing.T) {
	e := newEngine(t)
	setupStar(t, e)
	setupNullable(t, e)
	s := e.NewSession()
	for _, q := range groupJoinQueries {
		if plan := mustExec(t, s, "EXPLAIN "+q).Plan; !strings.Contains(plan, "group-join") {
			t.Errorf("%s: not a group-join:\n%s", q, plan)
		}
	}
	queries := append(append(append(append([]string{}, partitionedPlanQueries...), vectorizedScanQueries...), groupJoinQueries...), nullableQueries...)
	sameAsOracle(t, queries, "vectorized", s, s)

	// Again inside a transaction with pending writes: the fragments holding
	// them answer with a dense copy of their cache rows and the pending
	// inserts, their siblings with selections over their caches, so
	// pushed-down aggregates merge partials of both kinds, exchanges meet
	// both, and a broadcast of dim1 gathers both.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE fact SET amt = 1000 WHERE id = 5`)
	mustExec(t, s, `UPDATE dim1 SET w = 3 WHERE id = 11`)
	mustExec(t, s, `UPDATE nul SET x = NULL, s = 'red' WHERE id = 7`)
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
// line is the executor's own account of a dry run, in which every slot is
// a batch — the pk probe's and a CSE-shared scan's too — and explaining
// scans nothing and charges nothing.
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
	}
	// batches runs explain's dry run and requires op to have handed up its
	// slots as batches.
	batches := func(s *Session, q, op string) {
		t.Helper()
		explain(s, q)
		trace, err := s.dryRun(optimized(t, s, q))
		if err != nil {
			t.Fatal(err)
		}
		for _, ot := range trace.ops {
			if ot.op == op && ot.batches > 0 {
				return
			}
		}
		t.Errorf("dry run of %s: no batch slot from %s", q, op)
	}
	const grouped = `SELECT dept, COUNT(*) AS n FROM emp WHERE salary > 100 GROUP BY dept`
	explain(sVec, grouped)
	// The pk point probe answers with a batch decoded from the store.
	batches(sVec, `SELECT * FROM emp WHERE id = 3`, "IndexProbe emp")

	// A central join gathers batches and joins them at the coordinator; a
	// colocated join whose one side the pk hash index answers gets that
	// side's probed rows as a batch too.
	eStar := newEngine(t)
	setupStar(t, eStar)
	s := eStar.NewSession()
	explain(s, `SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.a = d1.id WHERE f.amt > 40 AND d1.w < 5`, "method=central")
	explain(s, `SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.id = d1.id WHERE f.amt > 40 AND d1.id = 7`, "method=colocated")
	explain(s, `SELECT f.id, s.v FROM fact f JOIN small s ON f.a = s.id`, "method=broadcast")
	explain(s, `SELECT id, amt * 2 AS twice FROM fact`)
	explain(s, `SELECT id, amt FROM fact WHERE amt > 90 ORDER BY amt DESC, id LIMIT 5`, "Sort(", "Limit(5)")
	explain(s, `SELECT DISTINCT cat FROM dim2`, "Distinct")
	// Each parent of a CSE-shared scan gets a batch over the gathered one.
	batches(s, `SELECT COUNT(*) AS n FROM fact x JOIN fact y ON x.id = y.id`, "Scan fact")
	// Inside a transaction the fragment holding a pending write folds it
	// into its batch like the others.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE fact SET amt = 0 WHERE id = 5`)
	explain(s, `SELECT id, amt FROM fact WHERE amt < 3`)
	explain(s, `SELECT a, COUNT(*) AS n FROM fact GROUP BY a`)
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
// its fragments, and the group-joins over those — borrow from the
// statement's arena like the others. With released payloads poisoned their
// answers are the oracle's,
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
	for _, q := range append([]string{
		`SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.a = d1.id WHERE f.amt > 80 ORDER BY f.id DESC LIMIT 25`,
		`SELECT a, COUNT(*) AS n FROM fact GROUP BY a ORDER BY n DESC, a LIMIT 7`,
		`SELECT DISTINCT d2.cat FROM fact f JOIN dim2 d2 ON f.b = d2.id`,
		`SELECT DISTINCT b FROM fact WHERE amt < 9`,
		`SELECT f.id, s.v FROM fact f JOIN small s ON f.a = s.id WHERE f.amt > 30`,
		`SELECT f.id, s.v FROM fact f JOIN small s ON f.a = s.id ORDER BY f.id LIMIT 40`,
		broadcastFragmentedQuery,
	}, groupJoinQueries...) {
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

// TestOneGroupJoinCountExcludesMisses: a group-join COUNT(*) whose probe
// keys all sink to its one group counts a fragment's filtered rows by
// popcount, trusting the fact column's recorded range to lie inside one run
// of the broadcast side's keys. It must still leave out a row that cannot
// join: a transaction's own pending insert of an unmatched key (the
// fragment's batch then carries no range), a committed UPDATE that moves a
// key above or below the dimension's keys (the cache widens its range), and
// a dimension key deleted from the middle of the table (a miss inside the
// probe's range). Each answer is held to a count over a model of the rows.
func TestOneGroupJoinCountExcludesMisses(t *testing.T) {
	s := newEngine(t).NewSession()
	mustExec(t, s, `CREATE TABLE f (id INT, a INT, amt INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`)
	mustExec(t, s, `CREATE TABLE d (id INT, w INT, PRIMARY KEY (id))`)
	type row struct{ a, amt int64 }
	facts, dims := map[int64]row{}, map[int64]bool{}
	var fv, dv []string
	for i := int64(0); i < 400; i++ {
		facts[i] = row{i % 50, i % 7}
		fv = append(fv, fmt.Sprintf("(%d, %d, %d)", i, i%50, i%7))
	}
	for i := int64(0); i < 50; i++ {
		dims[i] = true
		dv = append(dv, fmt.Sprintf("(%d, %d)", i, i%3))
	}
	mustExec(t, s, "INSERT INTO f VALUES "+strings.Join(fv, ", "))
	mustExec(t, s, "INSERT INTO d VALUES "+strings.Join(dv, ", "))
	const q = `SELECT COUNT(*) AS n FROM f JOIN d ON f.a = d.id WHERE f.amt < 4`
	if plan := mustExec(t, s, "EXPLAIN "+q).Plan; !strings.Contains(plan, "group-join") {
		t.Fatalf("not a group-join:\n%s", plan)
	}
	check := func(step string) {
		t.Helper()
		want := int64(0)
		for _, r := range facts {
			if r.amt < 4 && dims[r.a] {
				want++
			}
		}
		rel, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := rel.Tuples[0][0].Int(); got != want {
			t.Errorf("%s: COUNT(*) %d, want %d", step, got, want)
		}
	}
	check("every key joins")

	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO f VALUES (1000, 77, 0), (1001, 5, 0)`)
	facts[1000], facts[1001] = row{77, 0}, row{5, 0}
	check("the transaction's own inserts, one unmatched")
	mustExec(t, s, `ROLLBACK`)
	delete(facts, 1000)
	delete(facts, 1001)

	for _, a := range []int64{500, -5} {
		mustExec(t, s, fmt.Sprintf(`UPDATE f SET a = %d WHERE id = 3`, a))
		facts[3] = row{a, 3}
		check(fmt.Sprintf("a committed UPDATE moves a key to %d", a))
		mustExec(t, s, `UPDATE f SET a = 3 WHERE id = 3`)
		facts[3] = row{3, 3}
	}

	mustExec(t, s, `DELETE FROM d WHERE id = 20`)
	delete(dims, 20)
	check("a deleted dimension key")
}
