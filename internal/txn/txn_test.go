package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeParticipant records 2PC calls and can be told to veto.
type fakeParticipant struct {
	name string
	veto error

	mu       sync.Mutex
	prepared []ID
	commits  []ID
	aborts   []ID
}

func (f *fakeParticipant) Name() string { return f.name }

func (f *fakeParticipant) Prepare(tx ID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.veto != nil {
		return f.veto
	}
	f.prepared = append(f.prepared, tx)
	return nil
}

func (f *fakeParticipant) Commit(tx ID, ts uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.commits = append(f.commits, tx)
	return nil
}

func (f *fakeParticipant) Abort(tx ID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.aborts = append(f.aborts, tx)
	return nil
}

func (f *fakeParticipant) counts() (p, c, a int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.prepared), len(f.commits), len(f.aborts)
}

func TestCommitLifecycle(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if tx.State() != Active {
		t.Fatalf("state = %v", tx.State())
	}
	if err := tx.Lock("frag-1", Exclusive); err != nil {
		t.Fatal(err)
	}
	p1, p2 := &fakeParticipant{name: "ofm-1"}, &fakeParticipant{name: "ofm-2"}
	tx.Enlist(p1)
	tx.Enlist(p2)
	tx.Enlist(p1) // duplicate collapses
	if len(tx.Participants()) != 2 {
		t.Errorf("participants = %d", len(tx.Participants()))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != Committed {
		t.Errorf("state = %v", tx.State())
	}
	for _, p := range []*fakeParticipant{p1, p2} {
		prep, comm, ab := p.counts()
		if prep != 1 || comm != 1 || ab != 0 {
			t.Errorf("%s: prepare=%d commit=%d abort=%d", p.name, prep, comm, ab)
		}
	}
	// Locks released.
	if len(m.Locks().HeldBy(tx.ID())) != 0 {
		t.Error("locks survived commit")
	}
	if m.Commits() != 1 || m.Aborts() != 0 || m.ActiveCount() != 0 {
		t.Errorf("manager stats: commits=%d aborts=%d active=%d", m.Commits(), m.Aborts(), m.ActiveCount())
	}
	// Double commit fails.
	if err := tx.Commit(); err == nil {
		t.Error("second commit should error")
	}
}

func TestVetoAbortsEveryone(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	good := &fakeParticipant{name: "good"}
	bad := &fakeParticipant{name: "bad", veto: fmt.Errorf("disk full")}
	tx.Enlist(good)
	tx.Enlist(bad)
	err := tx.Commit()
	if err == nil || tx.State() != Aborted {
		t.Fatalf("commit = %v, state = %v", err, tx.State())
	}
	_, gc, ga := good.counts()
	if gc != 0 || ga != 1 {
		t.Errorf("good participant: commits=%d aborts=%d", gc, ga)
	}
	_, bc, ba := bad.counts()
	if bc != 0 || ba != 1 {
		t.Errorf("bad participant: commits=%d aborts=%d", bc, ba)
	}
	if m.Aborts() != 1 {
		t.Errorf("aborts = %d", m.Aborts())
	}
}

func TestLockAfterAbortFails(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	tx.Abort()
	tx.Abort() // aborting twice is a no-op
	if m.Aborts() != 1 {
		t.Errorf("aborts = %d after a double abort, want 1", m.Aborts())
	}
	if err := tx.Lock("f", Exclusive); err == nil {
		t.Error("lock on aborted txn should error")
	}
}

func TestDeadlockAbortsRequester(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	if err := t1.Lock("a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := t2.Lock("b", Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- t1.Lock("b", Exclusive) }()
	time.Sleep(50 * time.Millisecond)
	err := t2.Lock("a", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	// t2 auto-aborted, freeing b: t1's waiting lock is granted.
	if t2.State() != Aborted {
		t.Errorf("victim state = %v", t2.State())
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("survivor lock failed: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("survivor still blocked after victim aborted")
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentTransfersSerialize(t *testing.T) {
	// The banking workload: concurrent increments under X locks must not
	// lose updates.
	m := NewManager()
	balance := 0
	var bmu sync.Mutex
	var wg sync.WaitGroup
	deadlocks := 0
	var dmu sync.Mutex
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				tx := m.Begin()
				if err := tx.Lock("account", Exclusive); err != nil {
					dmu.Lock()
					deadlocks++
					dmu.Unlock()
					continue
				}
				bmu.Lock()
				balance++
				bmu.Unlock()
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if balance != 16*25 {
		t.Errorf("balance = %d, want %d (lost updates)", balance, 400)
	}
	if deadlocks != 0 {
		t.Errorf("single-resource workload deadlocked %d times", deadlocks)
	}
	if m.Commits() != 400 {
		t.Errorf("commits = %d", m.Commits())
	}
}

func TestTwoPCNoParticipants(t *testing.T) {
	m := NewManager()
	if err := m.runTwoPhaseCommit(1, 1, nil); err != nil {
		t.Errorf("empty 2PC = %v", err)
	}
}
