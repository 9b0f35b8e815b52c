package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fragment"
	"repro/internal/value"
)

// streamEngine builds an engine with the stock emp table plus a larger
// wide table for multi-batch streams.
func streamEngine(t *testing.T, rows int) *Engine {
	t.Helper()
	eng, err := New(Config{NumPEs: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	if err := eng.CreateTable("emp", value.MustSchema("id", "INT", "dept", "VARCHAR", "salary", "INT"),
		&fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 4}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateTable("dept", value.MustSchema("name", "VARCHAR", "head", "VARCHAR"),
		&fragment.Scheme{Strategy: fragment.RoundRobin, N: 2}, []int{0}); err != nil {
		t.Fatal(err)
	}
	depts := []string{"eng", "ops", "hr", "sales"}
	emp := make([]value.Tuple, rows)
	for i := range emp {
		emp[i] = value.NewTuple(
			value.NewInt(int64(i)),
			value.NewString(depts[i%len(depts)]),
			value.NewInt(int64((i*37)%100000)),
		)
	}
	if err := eng.LoadTable("emp", emp); err != nil {
		t.Fatal(err)
	}
	dt := make([]value.Tuple, 0, len(depts))
	for i, d := range depts {
		dt = append(dt, value.NewTuple(value.NewString(d), value.NewString(fmt.Sprintf("head%d", i))))
	}
	if err := eng.LoadTable("dept", dt); err != nil {
		t.Fatal(err)
	}
	return eng
}

// collect drains a cursor into one relation.
func collect(t *testing.T, cur *Cursor) *value.Relation {
	t.Helper()
	out := value.NewRelation(cur.Schema())
	for {
		rel, err := cur.Next()
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		if rel == nil {
			return out
		}
		if rel.Schema.Len() != cur.Schema().Len() {
			t.Fatalf("batch schema arity %d, cursor schema %d", rel.Schema.Len(), cur.Schema().Len())
		}
		out.Tuples = append(out.Tuples, rel.Tuples...)
	}
}

// TestStreamMatchesExec runs a spread of plan shapes both ways: the
// cursor must deliver exactly the tuples the materializing executor
// produces (streamed roots batch-wise, everything else single-batch).
func TestStreamMatchesExec(t *testing.T) {
	eng := streamEngine(t, 4000)
	queries := []string{
		`SELECT * FROM emp`,                                                          // fragment-at-a-time scan
		`SELECT * FROM emp WHERE salary > 50000`,                                     // pushed-down predicate
		`SELECT id, salary + 1 AS s1 FROM emp`,                                       // streamed projection
		`SELECT * FROM emp WHERE id = 123`,                                           // index probe
		`SELECT * FROM emp WHERE id = 123 AND salary > 0`,                            // probe + residual
		`SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept`,                          // materialized fallback
		`SELECT * FROM emp ORDER BY salary DESC LIMIT 10`,                            // sort fallback
		`SELECT DISTINCT dept FROM emp`,                                              // distinct fallback
		`SELECT e.id, d.head FROM emp e, dept d WHERE e.dept = d.name AND e.id < 50`, // join fallback
	}
	for _, q := range queries {
		t.Run(q, func(t *testing.T) {
			s := eng.NewSession()
			defer s.Close()
			want, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			cur, res, err := s.Stream(q)
			if err != nil {
				t.Fatal(err)
			}
			if res != nil {
				t.Fatalf("SELECT produced a materialized result: %+v", res)
			}
			got := collect(t, cur)
			if cur.Rows() != int64(got.Len()) {
				t.Fatalf("cursor.Rows() = %d, drained %d", cur.Rows(), got.Len())
			}
			if strings.Contains(q, "LIMIT") {
				// LIMIT without full ORDER BY determinism: compare counts.
				if got.Len() != want.Len() {
					t.Fatalf("rows = %d, want %d", got.Len(), want.Len())
				}
				return
			}
			if !got.SameBag(want) {
				t.Fatalf("streamed result differs from materialized:\ngot %d rows\nwant %d rows", got.Len(), want.Len())
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStreamLimitStopsEarly verifies LIMIT truncates the stream without
// draining every fragment's tuples through the consumer.
func TestStreamLimitStopsEarly(t *testing.T) {
	eng := streamEngine(t, 4000)
	s := eng.NewSession()
	defer s.Close()
	cur, _, err := s.Stream(`SELECT * FROM emp LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, cur)
	if got.Len() != 5 {
		t.Fatalf("rows = %d, want 5", got.Len())
	}
	if eng.Txns().ActiveCount() != 0 {
		t.Fatal("transaction still open after exhausted stream")
	}
}

// TestStreamDDLAndDML routes non-SELECT statements through Stream.
func TestStreamDDLAndDML(t *testing.T) {
	eng := streamEngine(t, 100)
	s := eng.NewSession()
	defer s.Close()
	cur, res, err := s.Stream(`INSERT INTO emp VALUES (100000, 'eng', 5)`)
	if err != nil {
		t.Fatal(err)
	}
	if cur != nil || res == nil || res.Affected != 1 {
		t.Fatalf("cur=%v res=%+v", cur, res)
	}
	if _, _, err := s.Stream(`SELECT * FROM nope`); err == nil {
		t.Fatal("streaming a bad statement succeeded")
	}
}

// TestStreamExhaustionCommitsAutocommit: draining the cursor leaves no
// transaction open and no writer blocked.
func TestStreamExhaustionCommitsAutocommit(t *testing.T) {
	eng := streamEngine(t, 2000)
	s := eng.NewSession()
	defer s.Close()
	cur, _, err := s.Stream(`SELECT * FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	collect(t, cur)
	if got := eng.Txns().ActiveCount(); got != 0 {
		t.Fatalf("%d transactions active after exhaustion", got)
	}
	// A writer must not block.
	assertWriteCompletes(t, eng)
	if cur.WallTime() <= 0 {
		t.Fatalf("WallTime = %v after exhaustion", cur.WallTime())
	}
}

// TestStreamEarlyCloseReleasesPin: closing a part-read cursor releases
// its snapshot pin — the one thing an abandoned stream can leak — so the
// garbage-collection horizon follows the watermark again.
func TestStreamEarlyCloseReleasesPin(t *testing.T) {
	eng := streamEngine(t, 4000)
	s := eng.NewSession()
	defer s.Close()
	cur, _, err := s.Stream(`SELECT * FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	// A commit moves the watermark past the cursor's snapshot, which holds
	// the horizon back while the cursor is open.
	assertWriteCompletes(t, eng)
	if h, w := eng.Txns().Horizon(), eng.Txns().Watermark(); h >= w {
		t.Fatalf("open cursor: horizon %d, watermark %d; want the pin to hold the horizon back", h, w)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if h, w := eng.Txns().Horizon(), eng.Txns().Watermark(); h != w {
		t.Fatalf("after early close: horizon %d, watermark %d; the snapshot pin leaked", h, w)
	}
	// The cursor is quiet after close.
	if rel, err := cur.Next(); rel != nil || err != nil {
		t.Fatalf("Next after Close = (%v, %v)", rel, err)
	}
}

// TestStreamExplicitTxnSnapshot: inside BEGIN..ROLLBACK the streaming
// reader pins a snapshot instead of locks — a concurrent writer is
// never blocked, and the open transaction keeps seeing its snapshot
// regardless of what committed since.
func TestStreamExplicitTxnSnapshot(t *testing.T) {
	eng := streamEngine(t, 2000)
	s := eng.NewSession()
	defer s.Close()
	if _, err := s.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	cur, _, err := s.Stream(`SELECT * FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	collect(t, cur)
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	// The reader transaction is still open, but snapshot reads hold no
	// locks: a writer must complete promptly.
	w := eng.NewSession()
	defer w.Close()
	done := make(chan error, 1)
	go func() {
		_, err := w.Exec(`UPDATE emp SET salary = 1 WHERE id = 7`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("writer alongside streaming transaction: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer blocked by a snapshot reader")
	}
	// The open transaction still sees its snapshot, not the new commit.
	rel, err := s.Query(`SELECT salary FROM emp WHERE id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0][0].Int() == 1 {
		t.Fatalf("snapshot transaction observed the concurrent write: %v", rel.Tuples)
	}
	if _, err := s.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	// A fresh read after the transaction ends sees the writer's commit.
	rel, err = s.Query(`SELECT salary FROM emp WHERE id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0][0].Int() != 1 {
		t.Fatalf("post-transaction read missed the committed write: %v", rel.Tuples)
	}
}

// assertWriteCompletes fails the test if an exclusive-lock write cannot
// finish promptly.
func assertWriteCompletes(t *testing.T, eng *Engine) {
	t.Helper()
	w := eng.NewSession()
	defer w.Close()
	done := make(chan error, 1)
	go func() {
		_, err := w.Exec(`UPDATE emp SET salary = 2 WHERE id = 11`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("write blocked behind a reader")
	}
}

// TestStreamRoutesLikeExec: Stream is Exec's routing with a cursor at
// the end, so the session and administration statements — SET, the
// user and grant statements, PROMOTE — answer the same through both, as
// does everything else, errors included. Two identical engines take the
// same script, one through each entry point.
func TestStreamRoutesLikeExec(t *testing.T) {
	script := []string{
		`SET STATEMENT_TIMEOUT = 100`,
		`SHOW ADMISSION`,
		`CREATE USER alice PASSWORD 'pw' PRIORITY batch MAX_CONCURRENT 2`,
		`GRANT SELECT, INSERT ON emp TO alice`,
		`SHOW USERS`,
		`REVOKE INSERT ON emp FROM alice`,
		`GRANT FLY ON emp TO alice`,
		`PROMOTE`,
		`SET STATEMENT_TIMEOUT = 0;`,
		`INSERT INTO emp VALUES (100000, 'eng', 5)`,
		`UPDATE emp SET salary = salary + 1 WHERE id = 7`,
		`SELECT id, salary FROM emp WHERE id = 7`,
		`SELECT id FROM emp WHERE id = 7.5`,
		`EXPLAIN SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept`,
		`BEGIN`,
		`DELETE FROM emp WHERE id = 100000`,
		`COMMIT`,
		`SELECT * FROM nope`,
		`SELEC 1`,
		`DROP USER alice`,
		`SHOW USERS`,
	}
	viaExec := func(s *Session, sql string) (*Result, error) { return s.Exec(sql) }
	viaStream := func(s *Session, sql string) (*Result, error) {
		cur, res, err := s.Stream(sql)
		if cur != nil {
			res = &Result{Rel: collect(t, cur), Plan: cur.Plan()}
		}
		return res, err
	}
	run := func(via func(*Session, string) (*Result, error), user bool) []string {
		eng := streamEngine(t, 100)
		s := eng.NewSession()
		defer s.Close()
		if user {
			mustExec(t, s, `CREATE USER bob PASSWORD 'pw'`)
			u, err := eng.Catalog().GetUser("bob")
			if err != nil {
				t.Fatal(err)
			}
			s.SetUser(u)
		}
		var out []string
		for _, sql := range script {
			res, err := via(s, sql)
			out = append(out, describeResult(res, err))
		}
		return out
	}
	for _, user := range []bool{false, true} {
		want, got := run(viaExec, user), run(viaStream, user)
		for i, sql := range script {
			if got[i] != want[i] {
				t.Errorf("non-admin=%v %s\n Stream: %s\n   Exec: %s", user, sql, got[i], want[i])
			}
		}
		if !user && strings.Contains(strings.Join(want[:6], ""), "error") {
			t.Errorf("administration statements failed through Exec: %q", want[:6])
		}
	}
}

// describeResult renders everything of a statement's outcome but its
// timings.
func describeResult(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	out := fmt.Sprintf("affected=%d msg=%q plan=%q", res.Affected, res.Msg, res.Plan)
	if res.Rel != nil {
		res.Rel.Sort()
		out += " rel=" + res.Rel.String()
	}
	return out
}
