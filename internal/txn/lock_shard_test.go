package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Sharding tests: the lock table is partitioned by resource hash, but
// deadlock detection, fairness, and end-of-transaction release must
// behave exactly as with one global mutex.

// resourcesInDistinctShards returns n resource names guaranteed to hash
// to n different shards.
func resourcesInDistinctShards(t *testing.T, lm *LockManager, n int) []string {
	t.Helper()
	if n > lockShards {
		t.Fatalf("cannot pick %d resources from %d shards", n, lockShards)
	}
	seen := map[*lockShard]bool{}
	var out []string
	for i := 0; len(out) < n && i < 100000; i++ {
		r := fmt.Sprintf("frag#%d", i)
		if sh := lm.shardOf(r); !seen[sh] {
			seen[sh] = true
			out = append(out, r)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d distinct shards", len(out))
	}
	return out
}

func TestShardSpread(t *testing.T) {
	lm := NewLockManager()
	seen := map[*lockShard]bool{}
	for i := 0; i < 1000; i++ {
		seen[lm.shardOf(fmt.Sprintf("emp#%d", i))] = true
	}
	if len(seen) < lockShards/2 {
		t.Errorf("1000 fragment names hit only %d of %d shards", len(seen), lockShards)
	}
}

// TestCrossShardDeadlock pins that a waits-for cycle spanning two
// shards is still detected: the graph is global even though the lock
// states are partitioned.
func TestCrossShardDeadlock(t *testing.T) {
	lm := NewLockManager()
	rs := resourcesInDistinctShards(t, lm, 2)
	a, b := rs[0], rs[1]
	if err := lm.Acquire(1, a, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, b, Exclusive); err != nil {
		t.Fatal(err)
	}
	firstWait := make(chan error, 1)
	go func() { firstWait <- lm.Acquire(1, b, Exclusive) }()
	deadline := time.Now().Add(2 * time.Second)
	for lm.queuedOn(b) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	err := lm.Acquire(2, a, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cross-shard cycle not detected: %v", err)
	}
	lm.ReleaseAll(2)
	select {
	case err := <-firstWait:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("survivor never granted after victim release")
	}
	lm.ReleaseAll(1)
}

// TestCrossShardThreeWayDeadlock drives a cycle through three shards.
func TestCrossShardThreeWayDeadlock(t *testing.T) {
	lm := NewLockManager()
	rs := resourcesInDistinctShards(t, lm, 3)
	for i, r := range rs {
		if err := lm.Acquire(ID(i+1), r, Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	go lm.Acquire(1, rs[1], Exclusive)
	deadline := time.Now().Add(2 * time.Second)
	for lm.queuedOn(rs[1]) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	go lm.Acquire(2, rs[2], Exclusive)
	for lm.queuedOn(rs[2]) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	err := lm.Acquire(3, rs[0], Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("three-way cross-shard cycle not detected: %v", err)
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
	lm.ReleaseAll(3)
}

// TestNoBargingAcrossShards re-pins the PR-1 fairness fix on the
// sharded table: on every shard, a request arriving behind a queued
// waiter is granted after it, not before, even while unrelated shards
// are granting freely.
func TestNoBargingAcrossShards(t *testing.T) {
	lm := NewLockManager()
	rs := resourcesInDistinctShards(t, lm, 4)
	for i, r := range rs {
		holder := ID(100 + i)
		if err := lm.Acquire(holder, r, Exclusive); err != nil {
			t.Fatal(err)
		}
		firstGranted := make(chan error, 1)
		first := ID(200 + i)
		go func(r string) { firstGranted <- lm.Acquire(first, r, Exclusive) }(r)
		deadline := time.Now().Add(2 * time.Second)
		for lm.queuedOn(r) == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}

		lateGranted := make(chan error, 1)
		late := ID(300 + i)
		go func(r string) { lateGranted <- lm.Acquire(late, r, Exclusive) }(r)
		for lm.queuedOn(r) < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}

		// Other shards keep working while this one has a queue.
		other := rs[(i+1)%len(rs)]
		if lm.shardOf(other) == lm.shardOf(r) {
			t.Fatalf("test resources share a shard")
		}
		probe := ID(400 + i)
		if err := lm.Acquire(probe, other, Exclusive); err != nil {
			t.Fatalf("independent shard blocked: %v", err)
		}
		lm.ReleaseAll(probe)

		lm.ReleaseAll(holder)
		if err := <-firstGranted; err != nil {
			t.Fatal(err)
		}
		select {
		case <-lateGranted:
			t.Fatalf("%s: late request granted past the queued one", r)
		case <-time.After(30 * time.Millisecond):
		}
		lm.ReleaseAll(first)
		if err := <-lateGranted; err != nil {
			t.Fatal(err)
		}
		lm.ReleaseAll(late)
	}
}

// TestShardedContentionStress hammers the sharded table from 16
// goroutines taking two-resource lock sets in random order across every
// shard, tolerating deadlock aborts, and verifies nothing leaks: every
// resource ends up holder-free and every successful transaction fully
// released. Run under -race in CI.
func TestShardedContentionStress(t *testing.T) {
	lm := NewLockManager()
	const (
		goroutines = 16
		resources  = 32
		iters      = 200
	)
	names := make([]string, resources)
	for i := range names {
		names[i] = fmt.Sprintf("emp#%d", i)
	}
	var nextTx atomic.Uint64
	var commits, aborts atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) * 977))
			for i := 0; i < iters; i++ {
				tx := ID(nextTx.Add(1))
				ok := true
				// No lock order: crossing pairs deadlock.
				for _, ri := range []int{r.Intn(resources), r.Intn(resources)} {
					if err := lm.Acquire(tx, names[ri], Exclusive); err != nil {
						if !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrAborted) {
							t.Errorf("unexpected acquire error: %v", err)
						}
						ok = false
						break
					}
				}
				lm.ReleaseAll(tx)
				if ok {
					commits.Add(1)
				} else {
					aborts.Add(1)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("sharded lock manager deadlocked or livelocked")
	}
	if commits.Load()+aborts.Load() != goroutines*iters {
		t.Fatalf("accounted %d+%d of %d transactions", commits.Load(), aborts.Load(), goroutines*iters)
	}
	if commits.Load() == 0 {
		t.Fatal("no transaction ever succeeded")
	}
	for _, name := range names {
		if h, ok := lm.Holder(name); ok {
			t.Errorf("%s still held by %d after all transactions finished", name, h)
		}
	}
}
