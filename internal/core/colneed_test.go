package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fragment"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// Every test of the package runs with released arena payloads overwritten:
// a vector read after its statement gave it back, or a row of one its
// borrower never wrote, then shows in the differential suites
// (TestPartitionedMatchesCentral, TestVectorizedMatchesRow, ...) as a wrong
// answer instead of a stale right one.
func init() { poisonReleased = true }

// needFixture loads the benchmark's analytic tables at test size on an
// engine of 16 PEs — fact and dim1 over 8 fragments like there, dim2 with a
// VARCHAR column, and wide, a table of 70 columns — and returns a session
// coordinating from PE 9.
func needFixture(t *testing.T, cfg Config) (*Engine, *Session) {
	t.Helper()
	cfg.NumPEs = 16
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	const wideRows, wideCols = 600, 70
	loadFactDim1(t, e, 20000)
	cats := []string{"red", "green", "blue", "gray"}
	loadHashed(t, e, "dim2", value.MustSchema("id", "INT", "cat", "VARCHAR"), 8, dimRows, func(i int) value.Tuple {
		return value.NewTuple(value.NewInt(int64(i)), value.NewString(cats[i%len(cats)]))
	})
	var wide []string
	for c := 0; c < wideCols; c++ {
		wide = append(wide, fmt.Sprintf("c%d", c), "INT")
	}
	loadHashed(t, e, "wide", value.MustSchema(wide...), 2, wideRows, func(i int) value.Tuple {
		row := make([]int64, wideCols)
		for c := range row {
			row[c] = int64(i * (c + 1) % dimRows)
		}
		return value.Ints(row...)
	})
	for e.coordinatorPE() != 8 { // the next session coordinates from PE 9
	}
	s := e.NewSession()
	t.Cleanup(s.Close)
	return e, s
}

const dimRows = 2200

// loadHashed creates a table hash-fragmented on its first column, which is
// its primary key, and bulk-loads n rows.
func loadHashed(t *testing.T, e *Engine, name string, schema *value.Schema, frags, n int, row func(i int) value.Tuple) {
	t.Helper()
	if err := e.CreateTable(name, schema, &fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: frags}, []int{0}); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Tuple, n)
	for i := range rows {
		rows[i] = row(i)
	}
	if err := e.LoadTable(name, rows); err != nil {
		t.Fatal(err)
	}
}

// loadFactDim1 loads the benchmark's fact (factRows rows) and dim1 tables,
// 8 fragments each.
func loadFactDim1(t *testing.T, e *Engine, factRows int) {
	t.Helper()
	loadHashed(t, e, "fact", value.MustSchema("id", "INT", "a", "INT", "b", "INT", "amt", "INT"), 8, factRows, func(i int) value.Tuple {
		return value.Ints(int64(i), int64(i%dimRows), int64(i*13%dimRows), int64(i%97))
	})
	loadHashed(t, e, "dim1", value.MustSchema("id", "INT", "w", "INT"), 8, dimRows, func(i int) value.Tuple {
		return value.Ints(int64(i), int64(i%7))
	})
}

// needStatements are the shapes the column-need pass treats differently:
// the benchmark's four analytic_read statements (the join is swapped by
// the optimizer: dim1 builds), a join whose unread side carries a VARCHAR
// column — which travels, its lengths being part of every size — a join
// with a residual predicate, the same join written the other way round
// (not swapped), and two statements over a table wider than the 64-column
// need mask, of which nothing is pruned.
var needStatements = []string{
	`SELECT id, amt FROM fact WHERE amt < 1`,
	`SELECT COUNT(*) AS n FROM fact f JOIN dim1 d1 ON f.a = d1.id WHERE f.amt < 48`,
	`SELECT a, COUNT(*) AS n, SUM(amt) AS s FROM fact WHERE amt < 48 GROUP BY a`,
	`SELECT d1.w, COUNT(*) AS n, SUM(f.amt) AS s FROM fact f JOIN dim1 d1 ON f.a = d1.id GROUP BY d1.w`,
	`SELECT COUNT(*) AS n FROM fact f JOIN dim2 d2 ON f.b = d2.id WHERE f.amt < 48`,
	`SELECT f.id FROM fact f JOIN dim1 d1 ON f.a = d1.id WHERE f.amt > d1.w * 10`,
	`SELECT d1.w, COUNT(*) AS n FROM dim1 d1 JOIN fact f ON d1.id = f.a WHERE f.amt < 48 GROUP BY d1.w`,
	`SELECT c3, c68 FROM wide WHERE c1 < 50`,
	`SELECT d1.w, COUNT(*) AS n, SUM(x.c69) AS s FROM wide x JOIN dim1 d1 ON x.c2 = d1.id GROUP BY d1.w`,
}

// charge is what one statement cost the simulated machine: every PE's
// clock (zeroed before it), the bytes between PEs and the simulated
// response time the result reports.
type charge struct {
	clocks []int64
	net    int64
	sim    time.Duration
}

// charged runs fn on a zeroed machine; fn returns the statement's own
// simulated time.
func charged(e *Engine, fn func() time.Duration) charge {
	m := e.Machine()
	m.ResetClocks()
	net0 := m.NetBytes()
	c := charge{sim: fn()}
	c.net = m.NetBytes() - net0
	for _, pe := range m.PEs() {
		c.clocks = append(c.clocks, int64(pe.Clock()))
	}
	return c
}

// checkCharges compares with goldens recorded at the parent commit,
// printing what it got as the literal to paste.
func checkCharges(t *testing.T, what string, got, want []charge) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	var b strings.Builder
	for _, c := range got {
		fmt.Fprintf(&b, "\t{%#v, %d, %d},\n", c.clocks, c.net, int64(c.sim))
	}
	t.Errorf("%s: the simulated machine was charged\n%swant %d steps equal to the parent's", what, b.String(), len(want))
	for i := range min(len(got), len(want)) {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s, step %d: got %v want %v", what, i, got[i], want[i])
		}
	}
}

// chargedQuery checks one statement against the plan oracle's answer on
// another engine holding the same data, and returns its charge.
func chargedQuery(t *testing.T, e *Engine, s, oracle *Session, q string) charge {
	t.Helper()
	return charged(e, func() time.Duration {
		res := mustExec(t, s, q)
		if want := oracleQuery(t, oracle, q); !res.Rel.SameBag(want) {
			t.Errorf("%s: %d rows differ from the oracle's %d", q, res.Rel.Len(), want.Len())
		}
		return res.SimTime
	})
}

// explainHas fails unless EXPLAIN of q contains every fragment.
func explainHas(t *testing.T, s *Session, q string, fragments ...string) {
	t.Helper()
	plan := mustExec(t, s, "EXPLAIN "+q).Plan
	for _, f := range fragments {
		if !strings.Contains(plan, f) {
			t.Errorf("EXPLAIN %s lacks %q:\n%s", q, f, plan)
		}
	}
}

// TestColumnNeedKeepsCharges: a column nobody reads travels as a kind, but
// the simulated machine must not be able to tell — every PE's clock, the
// bytes between PEs and the reported response time of every statement are
// the parent commit's, where every column was copied; and the answers are
// the plan oracle's.
func TestColumnNeedKeepsCharges(t *testing.T) {
	e, s := needFixture(t, Config{})
	_, oracle := needFixture(t, Config{})
	explainHas(t, s, needStatements[1], "repartition swapped", "columns: Scan dim1 1/2, Exchange 1/2, Scan fact 1/4, Exchange 1/4, Join 0/6")
	explainHas(t, s, needStatements[3], "columns: Scan fact 2/4, Exchange 2/4, Join 2/6")
	explainHas(t, s, needStatements[4], "columns: Scan fact 1/4, Exchange 1/4, Join 1/6") // cat travels unread
	explainHas(t, s, needStatements[5], "Select(f.amt", "columns: Scan fact 3/4, Exchange 3/4, Join 3/6, Select 3/6")
	explainHas(t, s, needStatements[6], "method=repartition)", "columns:")
	for _, q := range needStatements[7:] {
		if plan := mustExec(t, s, "EXPLAIN "+q).Plan; !strings.Contains(plan, "execution: vectorized") || strings.Contains(plan, "columns:") {
			t.Errorf("EXPLAIN %s: want a vectorized plan that prunes nothing, got\n%s", q, plan)
		}
	}
	var got []charge
	for _, q := range needStatements {
		got = append(got, chargedQuery(t, e, s, oracle, q))
	}
	checkCharges(t, "vectorized", got, needGolden)
	if n := value.ArenaLive(); n != 0 {
		t.Errorf("%d arena payloads still lent after the statements returned", n)
	}
}

// TestJoinResidualNeed: SQL leaves a cross-table condition in a Select
// above the join, so the executor's own residual — applied to the join's
// output where it lives — is reached only by a plan built by hand. Its
// columns must be asked of both sides although nothing above reads them.
func TestJoinResidualNeed(t *testing.T) {
	_, s := needFixture(t, Config{})
	q := needStatements[5]
	stmt, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	root, err := s.e.translateSelect(stmt.(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	project := s.e.opt.Optimize(root).(*plan.Project)
	sel := project.Child.(*plan.Select)
	join := sel.Child.(*plan.Join)
	join.Residual, project.Child = sel.Pred, join
	res, err := s.runSelectPlanStr(project, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := mustExec(t, s, q).Rel
	if want.Len() == 0 || !res.Rel.SameBag(want) {
		t.Errorf("join with the residual inside answered %d rows, the Select above it %d", res.Rel.Len(), want.Len())
	}
}

// mixedStatements reach the forms the need pass makes possible inside a
// writing transaction: the fragment holding the pending write answers with
// a dense copy of its cache rows and the pending insert, which meets its
// siblings' selections over their caches — all with kind-only columns —
// in an exchange (the repartition joins) and in the merge of pushed-down
// partial aggregates.
var mixedStatements = []string{needStatements[1], needStatements[2], needStatements[3]}

// TestColumnNeedMixedForms runs them in such a transaction and streams a
// join through a cursor closed after its first slot: rows are the plan
// oracle's, charges the goldens', and the arena is empty afterwards.
func TestColumnNeedMixedForms(t *testing.T) {
	e, s := needFixture(t, Config{})
	_, oracle := needFixture(t, Config{})
	for _, sess := range []*Session{s, oracle} {
		mustExec(t, sess, `BEGIN`)
		mustExec(t, sess, `UPDATE fact SET amt = 1 WHERE id = 5`)
	}
	for _, q := range mixedStatements[:2] {
		trace, err := s.dryRun(optimized(t, s, q))
		if err != nil {
			t.Fatal(err)
		}
		for _, ot := range trace.ops {
			if ot.batches == 0 {
				t.Errorf("EXPLAIN %s: %s handed up no batch inside the writing transaction", q, ot.op)
			}
		}
	}
	var got []charge
	for _, q := range mixedStatements {
		got = append(got, chargedQuery(t, e, s, oracle, q))
	}
	for _, sess := range []*Session{s, oracle} {
		mustExec(t, sess, `ROLLBACK`)
	}
	checkCharges(t, "in a writing transaction", got, mixedGolden)

	const join = `SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.a = d1.id`
	want := oracleQuery(t, oracle, join)
	streamed := charged(e, func() time.Duration {
		cur, _, err := s.Stream(join)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := cur.Next()
		if err != nil || rel == nil {
			t.Fatalf("first slot of the streamed join: %v, %v", rel, err)
		}
		if value.ArenaLive() == 0 {
			t.Error("an open cursor over a join holds no arena payloads: the test streams nothing the arena lent")
		}
		if !subBag(rel, want) {
			t.Errorf("first slot of the streamed join: %d rows not all in the oracle's %d", rel.Len(), want.Len())
		}
		cur.Close()
		return cur.SimTime()
	})
	checkCharges(t, "join streamed, closed after the first slot", []charge{streamed}, streamedGolden)
	if n := value.ArenaLive(); n != 0 {
		t.Errorf("%d arena payloads still lent after the cursor closed", n)
	}
}

// subBag reports whether every tuple of part is in whole, as often.
func subBag(part, whole *value.Relation) bool {
	counts := map[string]int{}
	for _, t := range whole.Tuples {
		counts[t.Key()]++
	}
	for _, t := range part.Tuples {
		if counts[t.Key()]--; counts[t.Key()] < 0 {
			return false
		}
	}
	return true
}

// TestColumnNeedConcurrentSessions: statements of several sessions borrow
// from and return to the same payload pools; with released payloads
// overwritten, a vector one statement handed back while another still
// read it would change an answer. Run under -race.
func TestColumnNeedConcurrentSessions(t *testing.T) {
	e, s := needFixture(t, Config{})
	joins := []string{needStatements[1], needStatements[3], needStatements[4], needStatements[5], needStatements[6]}
	want := make([]*value.Relation, len(joins))
	for i, q := range joins {
		want[i] = mustExec(t, s, q).Rel
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := e.NewSession()
			defer sess.Close()
			for round := 0; round < 6; round++ {
				for i := range joins {
					q := joins[(i+w)%len(joins)]
					rel, err := sess.Query(q)
					if err != nil {
						t.Errorf("session %d: %s: %v", w, q, err)
						return
					}
					if !rel.SameBag(want[(i+w)%len(joins)]) {
						t.Errorf("session %d round %d: %s answered differently beside other sessions", w, round, q)
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := value.ArenaLive(); n != 0 {
		t.Errorf("%d arena payloads still lent after every session finished", n)
	}
}

// TestJoinStatementBytes bars the bytes an in-process join and join_group
// statement allocate, on the benchmark's tables with fact scaled to 20 000
// rows (64 PEs, 8 fragments): at the parent commit, which copied all four
// fact columns per exchange target and laid out every build-side column
// along the probe side, 608 000 and 1 106 000 bytes per statement (three
// runs within 0.6%). The bar is a third of that.
func TestJoinStatementBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its Puts under the race detector")
	}
	e, err := New(Config{NumPEs: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	loadFactDim1(t, e, 20000)
	s := e.NewSession()
	defer s.Close()
	for _, c := range []struct {
		q           string
		parentBytes uint64
	}{
		{needStatements[1], 608_000},
		{needStatements[3], 1_106_000},
	} {
		for warm := 0; warm < 3; warm++ {
			mustExec(t, s, c.q)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			mustExec(t, s, c.q)
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes per statement (parent %d)", c.q, per, c.parentBytes)
		if per > c.parentBytes/3 {
			t.Errorf("%s allocates %d bytes per statement, want <= %d (a third of the parent's %d)", c.q, per, c.parentBytes/3, c.parentBytes)
		}
	}
}

// needGolden, mixedGolden and streamedGolden were recorded
// at the parent commit (PR 19), whose executor copied every column: 5 runs,
// -cpu 1,2,4 and 15 runs under -race gave these numbers each time. PE 0 is
// the disk PE, the exchanges target PEs 0, 2, 4, ..., 14 and the session
// coordinates from PE 9. Two entries moved since, by one column-cache
// build: the fact fragment on PE 1 holds the pending write, and since its
// batch scan folds the write in, it builds its cache (BuildCost of 2 500
// rows, 50 ms) inside the transaction — mixedGolden's first statement —
// instead of in the first scan after the rollback, the streamed join,
// where the 50 ms also delayed PEs 12 and 14. With every cache warmed
// before the transaction, both commits charge these statements alike.
var needGolden = []charge{
	{[]int64{0, 95922000, 96074000, 96226000, 96302000, 96454000, 96302000, 96226000, 0, 97764599, 0, 0, 0, 0, 0, 0}, 10136, 97764599},
	{[]int64{307781599, 194070000, 372902799, 193716000, 331815400, 193834000, 335920799, 193834000, 346257999, 384164198, 362965599, 70300000, 366739399, 35150000, 383797398, 35150000}, 954504, 384164198},
	{[]int64{0, 180994000, 180414000, 180628000, 180994000, 180474000, 180902000, 180658000, 0, 590415599, 0, 0, 0, 0, 0, 0}, 544104, 590415599},
	{[]int64{478834798, 349000000, 608448799, 349000000, 565453400, 349000000, 572814799, 349000000, 555794399, 632542198, 588194799, 59300000, 595835799, 29650000, 630136999, 29650000}, 1804512, 632542198},
	{[]int64{272914400, 169070000, 348094800, 168716000, 312801800, 168834000, 312201199, 168834000, 318190799, 359324200, 332658399, 36231000, 343605000, 72481000, 358957400, 36250000}, 963128, 359324200},
	{[]int64{524780798, 349000000, 653374799, 349000000, 609899400, 349000000, 617500799, 349000000, 601440399, 728403399, 633960799, 59300000, 641241799, 29650000, 674402999, 29650000}, 2344640, 728403399},
	{[]int64{272253599, 169070000, 337374799, 168716000, 301787400, 168834000, 305892799, 168834000, 310729999, 350597798, 327437599, 59300000, 331211399, 29650000, 348269398, 29650000}, 957320, 350597798},
	{[]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 35393000, 0, 0, 0, 0, 34662000, 34738000}, 1400, 35393000},
	{[]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 738606200, 42800000, 42800000, 21400000, 21400000, 371100000, 371100000}, 809600, 738606200},
}

var mixedGolden = []charge{
	{[]int64{357781599, 244070000, 422902799, 243716000, 381815400, 243834000, 385920799, 243834000, 396257999, 434164198, 412965599, 70300000, 416739399, 35150000, 433797398, 35150000}, 954504, 434164198},
	{[]int64{0, 180994000, 180414000, 180628000, 180994000, 180474000, 180902000, 180658000, 0, 590415599, 0, 0, 0, 0, 0, 0}, 544104, 590415599},
	{[]int64{478834798, 349000000, 608448799, 349000000, 565453400, 349000000, 572814799, 349000000, 555794399, 632542198, 588194799, 59300000, 595835799, 29650000, 630136999, 29650000}, 1804512, 632542198},
}

var streamedGolden = []charge{
	{[]int64{593190798, 349000000, 532304799, 349000000, 489309400, 349000000, 496670799, 349000000, 479650399, 705256997, 512050799, 59300000, 519691799, 29650000, 553992999, 29650000}, 1940480, 705256997},
}
