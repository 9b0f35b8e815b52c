package core

import (
	"testing"

	"repro/internal/value"
)

// TestRecoveryVersionedCommits is the MVCC recovery net: after a crash
// wipes volatile fragment state, log replay must rebuild exactly the
// pre-crash committed state — commits (autocommit and multi-fragment
// explicit transactions) stamped with their original timestamps, a
// rolled-back transaction's writes absent, and a transaction still in
// flight at crash time gone entirely. The restarted commit clock must
// also have advanced past every recovered timestamp so new commits are
// immediately visible.
func TestRecoveryVersionedCommits(t *testing.T) {
	e, s := isoEngine(t)
	defer s.Close()

	// Committed history: an autocommit update, then a multi-fragment
	// explicit transaction (rows 2 and 3 hash to different fragments, so
	// the commit runs two-phase across participants).
	mustExec(t, s, `UPDATE acct SET bal = 150 WHERE id = 1`)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE acct SET bal = bal - 40 WHERE id = 2`)
	mustExec(t, s, `UPDATE acct SET bal = bal + 40 WHERE id = 3`)
	mustExec(t, s, `COMMIT`)

	// A rolled-back transaction: its write must never resurface.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE acct SET bal = 9999 WHERE id = 4`)
	mustExec(t, s, `ROLLBACK`)

	// A writer still in flight when the crash hits.
	inflight := e.NewSession()
	defer inflight.Close()
	mustExec(t, inflight, `BEGIN`)
	mustExec(t, inflight, `UPDATE acct SET bal = 8888 WHERE id = 4`)

	before, err := s.Query(`SELECT * FROM acct`)
	if err != nil {
		t.Fatal(err)
	}

	if err := e.CrashTable("acct"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RecoverTable("acct"); err != nil {
		t.Fatal(err)
	}
	// The in-flight writer died with the crash; its session rolls back,
	// releasing the exclusive lock it still holds.
	mustExec(t, inflight, `ROLLBACK`)

	// Post-recovery visibility == pre-crash committed state.
	after, err := s.Query(`SELECT * FROM acct`)
	if err != nil {
		t.Fatal(err)
	}
	if !after.SameSet(before) {
		t.Fatalf("recovery diverged: pre-crash %v, post-recovery %v", before.Tuples, after.Tuples)
	}
	for id, want := range map[int]int64{1: 150, 2: 160, 3: 340, 4: 400} {
		if got := balance(t, s, id); got != want {
			t.Errorf("post-recovery bal(%d) = %d, want %d", id, got, want)
		}
	}

	// The commit clock advanced past every recovered timestamp: a fresh
	// commit is visible to fresh snapshot reads right away.
	mustExec(t, s, `UPDATE acct SET bal = 555 WHERE id = 4`)
	if got := balance(t, s, 4); got != 555 {
		t.Errorf("post-recovery commit invisible: bal(4) = %d (commit clock behind recovered timestamps?)", got)
	}
	// And versioned reads inside a transaction still hold a stable
	// snapshot over the recovered store while new commits land.
	r := e.NewSession()
	defer r.Close()
	mustExec(t, r, `BEGIN`)
	if got := balance(t, r, 1); got != 150 {
		t.Fatalf("snapshot read over recovered store: bal(1) = %d", got)
	}
	mustExec(t, s, `UPDATE acct SET bal = 151 WHERE id = 1`)
	if got := balance(t, r, 1); got != 150 {
		t.Errorf("recovered store lost snapshot stability: bal(1) = %d", got)
	}
	mustExec(t, r, `COMMIT`)
	if got := balance(t, r, 1); got != 151 {
		t.Errorf("post-transaction read: bal(1) = %d", got)
	}
}

// TestLoadTableAllOrNothing: a bulk load with one ill-typed tuple fails
// before any fragment loads, so the table keeps its old contents in
// memory and on stable storage alike — the same row count before and
// after a crash and recovery, and a good load afterwards lands whole.
func TestLoadTableAllOrNothing(t *testing.T) {
	e := newEngine(t)
	s := e.NewSession()
	defer s.Close()
	mustExec(t, s, `CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))
		FRAGMENT BY HASH(id) INTO 2 FRAGMENTS`)
	rows := func(n int) []value.Tuple {
		out := make([]value.Tuple, n)
		for i := range out {
			out[i] = value.NewTuple(value.NewInt(int64(i)), value.NewInt(int64(10*i)))
		}
		return out
	}
	count := func(when string, want int) {
		t.Helper()
		rel, err := s.Query(`SELECT * FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != want {
			t.Errorf("%s: %d rows visible, want %d", when, rel.Len(), want)
		}
	}
	bad := rows(100)
	bad[50][1] = value.NewString("fifty")
	if err := e.LoadTable("t", bad); err == nil {
		t.Fatal("a load with a VARCHAR in an INT column succeeded")
	}
	count("after the failed load", 0)
	if err := e.CrashTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RecoverTable("t"); err != nil {
		t.Fatal(err)
	}
	count("after crash and recovery", 0)

	if err := e.LoadTable("t", rows(100)); err != nil {
		t.Fatal(err)
	}
	count("after a good load", 100)
	if err := e.CrashTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RecoverTable("t"); err != nil {
		t.Fatal(err)
	}
	count("after the good load's crash and recovery", 100)
}

// TestMistypedUpdateKeepsRow: an UPDATE whose new value does not fit its
// column fails as a statement and leaves the row as it was, whether the
// pk index or a scan finds the row, autocommit or inside a transaction,
// and recovery afterwards replays a log with nothing wrong in it. The new
// image used to be buffered unchecked: the commit applied the delete,
// failed the insert and reported success, the row was gone, and the
// logged image failed recovery.
func TestMistypedUpdateKeepsRow(t *testing.T) {
	e, s := isoEngine(t)
	defer s.Close()
	for _, val := range []string{`'x'`, `1.5`} {
		for _, where := range []string{`id = 1`, `bal = 100`} {
			update := `UPDATE acct SET bal = ` + val + ` WHERE ` + where
			if _, err := s.Exec(update); err == nil {
				t.Errorf("%s: no error", update)
			}
			mustExec(t, s, `BEGIN`)
			if _, err := s.Exec(update); err == nil {
				t.Errorf("%s in a transaction: no error", update)
			}
			mustExec(t, s, `ROLLBACK`)
			if got := balance(t, s, 1); got != 100 {
				t.Fatalf("after %s: bal(1) = %d, want 100", update, got)
			}
		}
	}
	mustExec(t, s, `UPDATE acct SET bal = 150 WHERE id = 1`)
	if err := e.CrashTable("acct"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RecoverTable("acct"); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int]int64{1: 150, 2: 200, 3: 300, 4: 400} {
		if got := balance(t, s, id); got != want {
			t.Errorf("post-recovery bal(%d) = %d, want %d", id, got, want)
		}
	}
}
