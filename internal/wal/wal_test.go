package wal

import (
	"bytes"
	"testing"

	"repro/internal/machine"
	"repro/internal/txn"
	"repro/internal/value"
)

func newLog(t *testing.T) (*machine.Machine, *Log) {
	t.Helper()
	m, err := machine.New(machine.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	store, err := machine.NewStableStore(m.PE(0), machine.DiskModel{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(store, "wal-test")
	if err != nil {
		t.Fatal(err)
	}
	return m, l
}

func tup(vs ...int64) value.Tuple { return value.Ints(vs...) }

// recoverLog is a restart with no in-doubt resolver.
func recoverLog(t *testing.T, l *Log) *RecoveryResult {
	t.Helper()
	res, err := l.RecoverResolved(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// redo is what replaying a recovery's records applies: the insert and
// delete records of the transactions it reports committed, in log order.
func redo(res *RecoveryResult) []Record {
	committed := map[txn.ID]bool{}
	for _, id := range res.Committed {
		committed[id] = true
	}
	var out []Record
	for _, r := range res.Records {
		if (r.Type == RecInsert || r.Type == RecDelete) && committed[r.Txn] {
			out = append(out, r)
		}
	}
	return out
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil, "x"); err == nil {
		t.Error("nil store should error")
	}
	m, err := machine.New(machine.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	store, err := machine.NewStableStore(m.PE(0), machine.DiskModel{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(store, ""); err == nil {
		t.Error("empty name should error")
	}
}

func TestAppendScanRoundTrip(t *testing.T) {
	_, l := newLog(t)
	recs := []Record{
		{Type: RecInsert, Txn: 1, Tuple: tup(1, 10)},
		{Type: RecDelete, Txn: 1, Tuple: tup(2, 20)},
		{Type: RecPrepare, Txn: 1},
		{Type: RecCommit, Txn: 1},
	}
	if err := l.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 4 {
		t.Errorf("Records = %d", l.Records())
	}
	got, err := l.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("scanned %d records", len(got))
	}
	for i, r := range got {
		if r.Type != recs[i].Type || r.Txn != recs[i].Txn {
			t.Errorf("record %d = %+v, want %+v", i, r, recs[i])
		}
		if (r.Tuple == nil) != (recs[i].Tuple == nil) {
			t.Errorf("record %d payload mismatch", i)
		}
		if r.Tuple != nil && !value.EqualTuples(r.Tuple, recs[i].Tuple) {
			t.Errorf("record %d tuple = %v", i, r.Tuple)
		}
	}
	// Appending nothing is a no-op.
	if err := l.Append(); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 4 {
		t.Error("empty append changed count")
	}
}

func TestAppendChargesDiskTime(t *testing.T) {
	m, l := newLog(t)
	before := m.PE(0).Clock()
	if err := l.Append(Record{Type: RecCommit, Txn: 1}); err != nil {
		t.Fatal(err)
	}
	if m.PE(0).Clock() <= before {
		t.Error("log force must charge virtual disk time")
	}
}

func TestRecoverOnlyCommitted(t *testing.T) {
	_, l := newLog(t)
	// Txn 1 commits; txn 2 prepares but never resolves; txn 3 aborts.
	must(t, l.Append(
		Record{Type: RecInsert, Txn: 1, Tuple: tup(1)},
		Record{Type: RecPrepare, Txn: 1},
		Record{Type: RecCommit, Txn: 1},
		Record{Type: RecInsert, Txn: 2, Tuple: tup(2)},
		Record{Type: RecPrepare, Txn: 2},
		Record{Type: RecInsert, Txn: 3, Tuple: tup(3)},
		Record{Type: RecPrepare, Txn: 3},
		Record{Type: RecAbort, Txn: 3},
	))
	res := recoverLog(t, l)
	if len(res.Records) != 8 {
		t.Errorf("records = %d, want the whole log", len(res.Records))
	}
	if r := redo(res); len(r) != 1 || r[0].Tuple[0].Int() != 1 {
		t.Errorf("redo = %+v", r)
	}
	if len(res.Committed) != 1 || res.Committed[0] != 1 {
		t.Errorf("committed = %v", res.Committed)
	}
	if len(res.InDoubt) != 1 || res.InDoubt[0] != 2 {
		t.Errorf("in doubt = %v", res.InDoubt)
	}
	if len(res.AbortedTxns) != 1 || res.AbortedTxns[0] != 3 {
		t.Errorf("aborted = %v", res.AbortedTxns)
	}
	if res.Snapshot != nil {
		t.Errorf("unexpected snapshot %v", res.Snapshot)
	}
}

func TestCheckpointAndRecover(t *testing.T) {
	_, l := newLog(t)
	// Pre-checkpoint history.
	must(t, l.Append(
		Record{Type: RecInsert, Txn: 1, Tuple: tup(1)},
		Record{Type: RecCommit, Txn: 1},
	))
	image := []byte("the store's rows, opaque to the log")
	if err := l.CheckpointImage(image, nil); err != nil {
		t.Fatal(err)
	}
	if l.Bytes() != 0 {
		t.Errorf("log not truncated: %d bytes", l.Bytes())
	}
	// Post-checkpoint commits.
	must(t, l.Append(
		Record{Type: RecInsert, Txn: 2, Tuple: tup(2)},
		Record{Type: RecCommit, Txn: 2},
	))
	res := recoverLog(t, l)
	if !bytes.Equal(res.Snapshot, image) {
		t.Errorf("snapshot = %q, want %q", res.Snapshot, image)
	}
	if len(res.Committed) != 1 || res.Committed[0] != 2 {
		t.Errorf("committed = %v, want only the post-checkpoint txn", res.Committed)
	}
	if r := redo(res); len(r) != 1 || r[0].Tuple[0].Int() != 2 {
		t.Errorf("redo = %+v", r)
	}
}

func TestRecoverEmptyLog(t *testing.T) {
	_, l := newLog(t)
	res := recoverLog(t, l)
	if res.Snapshot != nil || len(res.Records) != 0 || len(res.Committed) != 0 {
		t.Errorf("empty recovery = %+v", res)
	}
}

func TestUpdateAsDeleteInsert(t *testing.T) {
	_, l := newLog(t)
	// An update of (1,10) to (1,20) logs delete+insert under one txn.
	must(t, l.Append(
		Record{Type: RecDelete, Txn: 5, Tuple: tup(1, 10)},
		Record{Type: RecInsert, Txn: 5, Tuple: tup(1, 20)},
		Record{Type: RecPrepare, Txn: 5},
		Record{Type: RecCommit, Txn: 5},
	))
	res := recoverLog(t, l)
	if r := redo(res); len(r) != 2 || r[0].Type != RecDelete || r[1].Type != RecInsert {
		t.Errorf("redo = %+v", r)
	}
}

func TestCorruptTailTruncated(t *testing.T) {
	// A crash can leave garbage where a record should start. Scan keeps
	// the valid prefix (here: none) instead of failing the whole
	// recovery, and Recover truncates the garbage so the log is clean
	// for new appends.
	m, err := machine.New(machine.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	store, err := machine.NewStableStore(m.PE(0), machine.DiskModel{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append("bad", []byte{99, 0, 0}); err != nil {
		t.Fatal(err)
	}
	l, err := Open(store, "bad")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := l.Scan()
	if err != nil || len(recs) != 0 {
		t.Errorf("Scan = %v, %v; want empty prefix, nil error", recs, err)
	}
	if tb := l.TornBytes(); tb != 3 {
		t.Errorf("TornBytes = %d, want 3", tb)
	}
	res := recoverLog(t, l)
	if res.TornBytes != 3 || len(res.Records) != 0 {
		t.Errorf("recovery = %+v, want 3 torn bytes and no redo", res)
	}
	if store.Size("bad") != 0 {
		t.Errorf("garbage not truncated: %d bytes remain", store.Size("bad"))
	}
	// The healed log accepts and round-trips new appends.
	must(t, l.Append(Record{Type: RecInsert, Txn: 9, Tuple: tup(42)}, Record{Type: RecCommit, Txn: 9}))
	res = recoverLog(t, l)
	if r := redo(res); len(r) != 1 || r[0].Tuple[0].Int() != 42 {
		t.Errorf("post-heal redo = %+v", r)
	}
}

func TestLogSurvivesReopen(t *testing.T) {
	m, l := newLog(t)
	must(t, l.Append(
		Record{Type: RecInsert, Txn: 1, Tuple: tup(7)},
		Record{Type: RecCommit, Txn: 1},
	))
	// "Crash": the Log object is dropped; a fresh one opens the same
	// segment (stable storage survives).
	store, err := machine.NewStableStore(m.PE(0), machine.DiskModel{})
	if err != nil {
		t.Fatal(err)
	}
	_ = store // different store object would be a different disk; reuse l's
	l2, err := Open(l.store, "wal-test")
	if err != nil {
		t.Fatal(err)
	}
	res := recoverLog(t, l2)
	if r := redo(res); len(r) != 1 || r[0].Tuple[0].Int() != 7 {
		t.Errorf("post-crash redo = %+v", r)
	}
}

func TestRecTypeString(t *testing.T) {
	for rt, want := range map[RecType]string{
		RecInsert: "insert", RecDelete: "delete", RecPrepare: "prepare",
		RecCommit: "commit", RecAbort: "abort", RecType(99): "?",
	} {
		if rt.String() != want {
			t.Errorf("%d.String() = %q, want %q", rt, rt.String(), want)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
