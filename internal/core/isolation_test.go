package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/txn"
)

// Snapshot-isolation anomaly regression suite. Each test pins one
// guarantee of the MVCC design: readers see a consistent committed
// snapshot (no G1a dirty reads, no G1b non-repeatable reads), writers
// are serialized by exclusive locks (no G0 dirty writes), concurrent
// read-modify-write transactions cannot silently lose updates
// (first-committer-wins aborts the second writer with a retryable
// error), transactions read their own uncommitted writes, and the one
// anomaly snapshot isolation permits — write skew — is demonstrated so
// a future strengthening to serializable shows up as a test change.

// isoEngine builds an engine with one single-column-key accounts table.
func isoEngine(t *testing.T) (*Engine, *Session) {
	t.Helper()
	e := newEngine(t)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE acct (id INT, bal INT, PRIMARY KEY (id))
		FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`)
	mustExec(t, s, `INSERT INTO acct VALUES (1, 100), (2, 200), (3, 300), (4, 400)`)
	return e, s
}

func balance(t *testing.T, s *Session, id int) int64 {
	t.Helper()
	rel, err := s.Query(fmt.Sprintf(`SELECT bal FROM acct WHERE id = %d`, id))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("balance(%d): %d rows", id, rel.Len())
	}
	return rel.Tuples[0][0].Int()
}

// TestNoDirtyReads (G1a): an uncommitted write is invisible to every
// other session, and stays invisible after the writer rolls back.
func TestNoDirtyReads(t *testing.T) {
	e, w := isoEngine(t)
	defer w.Close()
	r := e.NewSession()
	defer r.Close()

	mustExec(t, w, `BEGIN`)
	mustExec(t, w, `UPDATE acct SET bal = 999 WHERE id = 1`)
	if got := balance(t, r, 1); got != 100 {
		t.Errorf("reader saw uncommitted write: bal = %d", got)
	}
	mustExec(t, w, `ROLLBACK`)
	if got := balance(t, r, 1); got != 100 {
		t.Errorf("rolled-back write leaked: bal = %d", got)
	}
}

// TestNoNonRepeatableReads (G1b): a transaction re-reading a row sees
// the same value even after a concurrent commit; the new value appears
// only to reads that start after the transaction ends.
func TestNoNonRepeatableReads(t *testing.T) {
	e, w := isoEngine(t)
	defer w.Close()
	r := e.NewSession()
	defer r.Close()

	mustExec(t, r, `BEGIN`)
	if got := balance(t, r, 2); got != 200 {
		t.Fatalf("first read: bal = %d", got)
	}
	mustExec(t, w, `UPDATE acct SET bal = 201 WHERE id = 2`) // autocommit
	if got := balance(t, r, 2); got != 200 {
		t.Errorf("non-repeatable read: bal = %d", got)
	}
	// A scan inside the same transaction is equally stable.
	rel, err := r.Query(`SELECT SUM(bal) AS total FROM acct`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Tuples[0][0].Int(); got != 1000 {
		t.Errorf("snapshot aggregate drifted: total = %d", got)
	}
	mustExec(t, r, `COMMIT`)
	if got := balance(t, r, 2); got != 201 {
		t.Errorf("post-transaction read: bal = %d", got)
	}
}

// TestNoDirtyWrites (G0): two writers of the same row serialize on the
// exclusive fragment lock; the second waits for the first to settle and
// never interleaves with (or overwrites) an uncommitted write.
func TestNoDirtyWrites(t *testing.T) {
	e, s := isoEngine(t)
	defer s.Close()

	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE acct SET bal = 111 WHERE id = 1`)

	w := e.NewSession()
	defer w.Close()
	done := make(chan error, 1)
	go func() {
		_, err := w.Exec(`UPDATE acct SET bal = 222 WHERE id = 1`)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("second writer did not wait for the first (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
		// Blocked on the X-lock, as required.
	}
	mustExec(t, s, `ROLLBACK`)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second writer after rollback: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second writer still blocked after rollback")
	}
	if got := balance(t, s, 1); got != 222 {
		t.Errorf("after rollback+write: bal = %d", got)
	}
}

// TestLostUpdateAborts: of two transactions that read-modify-write the
// same row from the same starting snapshot, the first committer wins
// and the second aborts with a retryable conflict — never a silent
// lost update.
func TestLostUpdateAborts(t *testing.T) {
	e, s1 := isoEngine(t)
	defer s1.Close()
	s2 := e.NewSession()
	defer s2.Close()

	// Both transactions pin their snapshot before either writes.
	mustExec(t, s1, `BEGIN`)
	if got := balance(t, s1, 3); got != 300 {
		t.Fatalf("s1 read: %d", got)
	}
	mustExec(t, s2, `BEGIN`)
	if got := balance(t, s2, 3); got != 300 {
		t.Fatalf("s2 read: %d", got)
	}
	mustExec(t, s1, `UPDATE acct SET bal = bal + 10 WHERE id = 3`)
	mustExec(t, s1, `COMMIT`)

	_, err := s2.Exec(`UPDATE acct SET bal = bal + 7 WHERE id = 3`)
	if err == nil {
		t.Fatal("second writer overwrote a concurrent committed update")
	}
	if !txn.IsRetryable(err) {
		t.Fatalf("conflict error is not retryable: %v", err)
	}
	mustExec(t, s2, `ROLLBACK`)
	if got := balance(t, s1, 3); got != 310 {
		t.Errorf("first committer's update lost: bal = %d", got)
	}

	// The documented contract: a retry from a fresh snapshot succeeds.
	mustExec(t, s2, `BEGIN`)
	mustExec(t, s2, `UPDATE acct SET bal = bal + 7 WHERE id = 3`)
	mustExec(t, s2, `COMMIT`)
	if got := balance(t, s1, 3); got != 317 {
		t.Errorf("retried update: bal = %d", got)
	}
}

// TestReadYourOwnWrites: inside a transaction, updates, inserts and
// deletes are visible to the transaction's own reads before commit —
// and invisible to everyone else until commit.
func TestReadYourOwnWrites(t *testing.T) {
	e, s := isoEngine(t)
	defer s.Close()
	r := e.NewSession()
	defer r.Close()

	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE acct SET bal = 150 WHERE id = 1`)
	if got := balance(t, s, 1); got != 150 {
		t.Errorf("own update invisible: bal = %d", got)
	}
	mustExec(t, s, `INSERT INTO acct VALUES (9, 900)`)
	if got := balance(t, s, 9); got != 900 {
		t.Errorf("own insert invisible: bal = %d", got)
	}
	mustExec(t, s, `DELETE FROM acct WHERE id = 2`)
	rel, err := s.Query(`SELECT * FROM acct WHERE id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Errorf("own delete invisible: %d rows", rel.Len())
	}
	// Aggregates see the overlay too: 150 + 300 + 400 + 900.
	rel, err = s.Query(`SELECT SUM(bal) AS total FROM acct`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Tuples[0][0].Int(); got != 1750 {
		t.Errorf("own-write aggregate: total = %d", got)
	}
	// Another session sees none of it.
	rel, err = r.Query(`SELECT SUM(bal) AS total FROM acct`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Tuples[0][0].Int(); got != 1000 {
		t.Errorf("uncommitted writes leaked: total = %d", got)
	}
	mustExec(t, s, `COMMIT`)
	rel, err = r.Query(`SELECT SUM(bal) AS total FROM acct`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Tuples[0][0].Int(); got != 1750 {
		t.Errorf("committed writes missing: total = %d", got)
	}
}

// TestWriteSkewPermitted: snapshot isolation (by design) permits write
// skew — two transactions each read both rows, then update different
// rows, and both commit even though a serial execution could not have
// produced the outcome. This pins the isolation level; a move to
// serializable would flip this test.
func TestWriteSkewPermitted(t *testing.T) {
	e, s1 := isoEngine(t)
	defer s1.Close()
	s2 := e.NewSession()
	defer s2.Close()

	mustExec(t, s1, `BEGIN`)
	mustExec(t, s2, `BEGIN`)
	// Both check the same invariant (bal1 + bal2 = 300)...
	if got := balance(t, s1, 1) + balance(t, s1, 2); got != 300 {
		t.Fatalf("s1 sum: %d", got)
	}
	if got := balance(t, s2, 1) + balance(t, s2, 2); got != 300 {
		t.Fatalf("s2 sum: %d", got)
	}
	// ...then write disjoint rows: no write-write conflict, both commit.
	mustExec(t, s1, `UPDATE acct SET bal = bal - 150 WHERE id = 1`)
	mustExec(t, s2, `UPDATE acct SET bal = bal - 250 WHERE id = 2`)
	mustExec(t, s1, `COMMIT`)
	mustExec(t, s2, `COMMIT`)
	if got := balance(t, s1, 1) + balance(t, s1, 2); got != -100 {
		t.Errorf("write-skew outcome: sum = %d (expected -100: SI permits this)", got)
	}
}

// TestSelectAcquiresNoLocks asserts the central mechanical claim of the
// MVCC design: read-only statements — point probes, scans, aggregates,
// EXPLAIN, PRISMAlog queries, prepared SELECTs, streamed cursors, and
// reads inside explicit transactions — never touch the lock manager at
// all.
func TestSelectAcquiresNoLocks(t *testing.T) {
	e, s := isoEngine(t)
	defer s.Close()
	ps, err := s.Prepare(`SELECT bal FROM acct WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}

	before := e.Txns().Locks().Acquires()
	if _, err := s.Query(`SELECT * FROM acct WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(`SELECT * FROM acct`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(`SELECT COUNT(*) AS n, SUM(bal) AS total FROM acct`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(`EXPLAIN SELECT COUNT(*) AS n FROM acct WHERE bal > 150`); err != nil {
		t.Fatal(err)
	}
	if rel, err := e.DatalogQuery(s, `acct(X, B)`); err != nil || rel.Len() != 4 {
		t.Fatalf("PRISMAlog over acct = %v, %v", rel, err)
	}
	if rel, err := s.QueryPrepared(ps, intArgs(3)); err != nil || rel.Len() != 1 {
		t.Fatalf("prepared SELECT = %v, %v", rel, err)
	}
	cur, _, err := s.Stream(`SELECT * FROM acct`)
	if err != nil {
		t.Fatal(err)
	}
	for {
		rel, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rel == nil {
			break
		}
	}
	mustExec(t, s, `BEGIN`)
	if _, err := s.Query(`SELECT * FROM acct WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `COMMIT`)
	if after := e.Txns().Locks().Acquires(); after != before {
		t.Errorf("read-only statements acquired %d locks", after-before)
	}
}
