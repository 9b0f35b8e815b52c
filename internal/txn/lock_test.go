package txn

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestExclusiveBlocks(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "f", Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- lm.Acquire(2, "f", Exclusive) }()
	select {
	case <-acquired:
		t.Fatal("X granted while X held")
	case <-time.After(50 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("lock never granted after release")
	}
}

func TestReacquireIsIdempotent(t *testing.T) {
	lm := NewLockManager()
	for i := 0; i < 3; i++ {
		if err := lm.Acquire(1, "f", Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	if got := lm.HeldBy(1); !slices.Equal(got, []string{"f"}) {
		t.Errorf("held after three acquires = %v, want [f] once", got)
	}
	// One release frees it.
	lm.ReleaseAll(1)
	if h, ok := lm.Holder("f"); ok {
		t.Errorf("f still held by %d after release", h)
	}
}

func TestDeadlockDetected(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	// 1 waits for b (held by 2).
	firstWait := make(chan error, 1)
	go func() { firstWait <- lm.Acquire(1, "b", Exclusive) }()
	time.Sleep(50 * time.Millisecond)
	// 2 requests a (held by 1): cycle — must be rejected immediately.
	err := lm.Acquire(2, "a", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	// Victim releases; waiter 1 proceeds.
	lm.ReleaseAll(2)
	select {
	case err := <-firstWait:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("survivor never granted")
	}
}

func TestThreeWayDeadlock(t *testing.T) {
	lm := NewLockManager()
	for i := ID(1); i <= 3; i++ {
		if err := lm.Acquire(i, string(rune('a'+i-1)), Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	// 1→b, 2→c block; 3→a closes the cycle.
	go lm.Acquire(1, "b", Exclusive)
	time.Sleep(30 * time.Millisecond)
	go lm.Acquire(2, "c", Exclusive)
	time.Sleep(30 * time.Millisecond)
	err := lm.Acquire(3, "a", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected 3-way deadlock, got %v", err)
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
	lm.ReleaseAll(3)
}

func TestReleaseAllCancelsWaiters(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "f", Exclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- lm.Acquire(2, "f", Exclusive) }()
	time.Sleep(30 * time.Millisecond)
	// Txn 2 aborts while waiting: its queued request must be cancelled.
	lm.ReleaseAll(2)
	select {
	case err := <-got:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("cancelled waiter got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled waiter still blocked")
	}
	// And the lock is still held by 1.
	if h, ok := lm.Holder("f"); !ok || h != 1 {
		t.Errorf("holder = %d, %v; want 1", h, ok)
	}
}

// TestFIFOGrantOrder pins the queue discipline: waiters are granted one
// at a time, in the order they queued, each when the one before it
// releases.
func TestFIFOGrantOrder(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "f", Exclusive); err != nil {
		t.Fatal(err)
	}
	waiters := []ID{2, 3, 4, 5}
	granted := make([]chan error, len(waiters))
	for i, tx := range waiters {
		ch := make(chan error, 1)
		granted[i] = ch
		go func() { ch <- lm.Acquire(tx, "f", Exclusive) }()
		waitForQueued(t, lm, "f", i+1) // deterministic queue order
	}
	holder := ID(1)
	for i, next := range waiters {
		for j := i + 1; j < len(waiters); j++ {
			select {
			case <-granted[j]:
				t.Fatalf("tx %d granted while %d held and %d was ahead", waiters[j], holder, next)
			default:
			}
		}
		lm.ReleaseAll(holder)
		select {
		case err := <-granted[i]:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Second):
			t.Fatalf("tx %d never granted after %d released", next, holder)
		}
		if h, _ := lm.Holder("f"); h != next {
			t.Fatalf("holder = %d, want %d", h, next)
		}
		holder = next
	}
	lm.ReleaseAll(holder)
	if h, ok := lm.Holder("f"); ok {
		t.Fatalf("f still held by %d", h)
	}
}

func TestManyConcurrentLockers(t *testing.T) {
	lm := NewLockManager()
	var wg sync.WaitGroup
	var counter int64
	var cmu sync.Mutex
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(tx ID) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := lm.Acquire(tx, "shared-resource", Exclusive); err != nil {
					continue // deadlock impossible here, but be safe
				}
				cmu.Lock()
				counter++
				cmu.Unlock()
				lm.ReleaseAll(tx)
			}
		}(ID(i + 1))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("lock manager livelocked")
	}
	if counter != 32*20 {
		t.Errorf("critical section entered %d times, want %d", counter, 640)
	}
}

// waitForQueued spins until n waiters are queued on resource.
func waitForQueued(t *testing.T, lm *LockManager, resource string, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if lm.queuedOn(resource) >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("never saw %d queued waiters on %q", n, resource)
}
