package wal

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/txn"
	"repro/internal/value"
)

// TestTornTailEveryOffset is the torn-write sweep: a multi-record log is
// cut at every possible byte offset, simulating a crash mid-append.
// Recovery must never error or panic, must recover exactly the records
// whose bytes fully landed, and the healed log must accept a new append
// that round-trips.
func TestTornTailEveryOffset(t *testing.T) {
	full := []Record{
		{Type: RecInsert, Txn: 1, Tuple: tup(1, 100)},
		{Type: RecPrepare, Txn: 1},
		{Type: RecCommit, Txn: 1, TS: 10},
		{Type: RecDelete, Txn: 2, Tuple: tup(2, 200)},
		{Type: RecInsert, Txn: 2, Tuple: tup(2, 201)},
		{Type: RecPrepare, Txn: 2},
		{Type: RecCommit, Txn: 2, TS: 20},
	}
	var encoded []byte
	boundaries := map[int]int{} // byte offset -> records fully encoded at it
	for i, r := range full {
		boundaries[len(encoded)] = i
		encoded = appendRecord(encoded, r)
	}
	boundaries[len(encoded)] = len(full)

	m, err := machine.New(machine.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(encoded); cut++ {
		store, err := machine.NewStableStore(m.PE(0), machine.DiskModel{})
		if err != nil {
			t.Fatal(err)
		}
		if cut > 0 {
			if _, err := store.Append("torn", encoded[:cut]); err != nil {
				t.Fatal(err)
			}
		}
		l, err := Open(store, "torn")
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.RecoverResolved(nil)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		// Count the records that should survive: the longest record
		// prefix fully contained in the cut.
		want := 0
		for b, n := range boundaries {
			if b <= cut && n > want {
				want = n
			}
		}
		recs, err := l.Scan()
		if err != nil {
			t.Fatalf("cut %d: rescan: %v", cut, err)
		}
		if len(recs) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), want)
		}
		for i, r := range recs {
			if r.Type != full[i].Type || r.Txn != full[i].Txn {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, r, full[i])
			}
		}
		// The tail is truncated: the segment holds exactly the valid prefix.
		wantBytes := int64(0)
		for b, n := range boundaries {
			if n == want {
				wantBytes = int64(b)
			}
		}
		if store.Size("torn") != wantBytes {
			t.Fatalf("cut %d: segment holds %d bytes, want %d", cut, store.Size("torn"), wantBytes)
		}
		_ = res
		// A post-recovery append round-trips on the healed log.
		extra := Record{Type: RecInsert, Txn: 99, Tuple: tup(7, 700)}
		if err := l.Append(extra, Record{Type: RecCommit, Txn: 99, TS: 99}); err != nil {
			t.Fatalf("cut %d: post-recovery append: %v", cut, err)
		}
		recs, err = l.Scan()
		if err != nil {
			t.Fatalf("cut %d: post-append scan: %v", cut, err)
		}
		if len(recs) != want+2 {
			t.Fatalf("cut %d: post-append scan has %d records, want %d", cut, len(recs), want+2)
		}
		last := recs[len(recs)-2]
		if last.Txn != 99 || !value.EqualTuples(last.Tuple, extra.Tuple) {
			t.Fatalf("cut %d: appended record did not round-trip: %+v", cut, last)
		}
	}
}

// TestRecoverResolvedInDoubt pins the in-doubt resolution contract:
// prepared-undecided transactions commit when the coordinator's decision
// log says so and are presumed aborted otherwise, and the resolution is
// healed into the log so a second restart needs no resolver.
func TestRecoverResolvedInDoubt(t *testing.T) {
	_, l := newLog(t)
	must(t, l.Append(
		// Txn 1: prepared, coordinator decided commit (marker lost in crash).
		Record{Type: RecInsert, Txn: 1, Tuple: tup(1)},
		Record{Type: RecPrepare, Txn: 1},
		// Txn 2: prepared, no decision anywhere — presumed abort.
		Record{Type: RecInsert, Txn: 2, Tuple: tup(2)},
		Record{Type: RecPrepare, Txn: 2},
	))
	decide := func(tx txn.ID) (uint64, bool, bool) {
		if tx == 1 {
			return 77, true, true
		}
		return 0, false, false
	}
	res, err := l.RecoverResolved(decide)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InDoubt) != 2 {
		t.Errorf("in doubt = %v, want both txns", res.InDoubt)
	}
	if len(res.ResolvedCommits) != 1 || res.ResolvedCommits[0] != 1 {
		t.Errorf("resolved commits = %v", res.ResolvedCommits)
	}
	if len(res.PresumedAborts) != 1 || res.PresumedAborts[0] != 2 {
		t.Errorf("presumed aborts = %v", res.PresumedAborts)
	}
	if r := redo(res); len(r) != 1 || r[0].Txn != 1 {
		t.Errorf("redo = %+v, want txn 1's insert", r)
	}
	// The records end with the healing markers, txn 1's carrying the
	// decided timestamp that replay installs its versions at.
	if n := len(res.Records); n != 6 ||
		res.Records[4].Type != RecCommit || res.Records[4].Txn != 1 || res.Records[4].TS != 77 ||
		res.Records[5].Type != RecAbort || res.Records[5].Txn != 2 {
		t.Errorf("records = %+v, want the log then commit 1 at 77, abort 2", res.Records)
	}
	if res.MaxTS != 77 {
		t.Errorf("MaxTS = %d, want 77", res.MaxTS)
	}
	// Second restart without any resolver: outcomes were healed into the
	// log, so nothing is in doubt anymore.
	res2 := recoverLog(t, l)
	if len(res2.InDoubt) != 0 {
		t.Errorf("after healing, in doubt = %v", res2.InDoubt)
	}
	if r := redo(res2); len(r) != 1 || r[0].Txn != 1 {
		t.Errorf("after healing, redo = %+v", r)
	}
}

func TestDecisionLogRoundTrip(t *testing.T) {
	m, err := machine.New(machine.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	store, err := machine.NewStableStore(m.PE(0), machine.DiskModel{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDecisionLog(store, "2pc-decisions")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RecordCommit(5, 50); err != nil {
		t.Fatal(err)
	}
	if err := d.RecordCommit(6, 60); err != nil {
		t.Fatal(err)
	}
	if ts, commit, known := d.Decision(5); !known || !commit || ts != 50 {
		t.Errorf("Decision(5) = %d,%v,%v", ts, commit, known)
	}
	if _, _, known := d.Decision(7); known {
		t.Error("Decision(7) should be unknown (presumed abort)")
	}
	// Reopen replays the segment (restart survival).
	d2, err := OpenDecisionLog(store, "2pc-decisions")
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 2 {
		t.Errorf("reopened decision log has %d entries", d2.Len())
	}
	if ts, commit, known := d2.Decision(6); !known || !commit || ts != 60 {
		t.Errorf("reopened Decision(6) = %d,%v,%v", ts, commit, known)
	}
	// A torn trailing entry (partial write) is no decision at all.
	if _, err := store.Append("2pc-decisions", []byte{decisionTag, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	d3, err := OpenDecisionLog(store, "2pc-decisions")
	if err != nil {
		t.Fatal(err)
	}
	if d3.Len() != 2 {
		t.Errorf("torn entry counted as decision: %d entries", d3.Len())
	}
	if _, err := OpenDecisionLog(nil, "x"); err == nil {
		t.Error("nil store should error")
	}
	if _, err := OpenDecisionLog(store, ""); err == nil {
		t.Error("empty name should error")
	}
}
