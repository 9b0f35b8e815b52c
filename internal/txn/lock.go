// Package txn provides the Global Data Handler's transaction machinery
// (paper §2.2: "the transaction manager, the concurrency control unit"):
// snapshot timestamps for readers (mvcc.go), a strict two-phase-locking
// lock manager with waits-for deadlock detection for writers, transaction
// lifecycle management, and a two-phase-commit coordinator that drives
// the One-Fragment Managers as participants.
//
// Lock granularity is the fragment: the paper notes queries proceed "in
// parallel, except for accesses to the same copy of base fragments of
// the database" — fragments are exactly the unit of conflict. Only
// writers meet there: a read pins a snapshot and never touches the lock
// table, so every lock is exclusive and a fragment has at most one
// holder.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ID identifies a transaction. Manager.Begin numbers them from 1.
type ID uint64

// LockMode is the strength of a lock. Since reads stopped locking there
// is one, Exclusive; the type and the parameters that take it stay
// because callers outside this module's packages name the mode (the
// repository benchmark's lock probe, a frozen path, calls
// Acquire(tx, name, Exclusive)).
type LockMode uint8

// Exclusive is the one lock mode: its holder is the fragment's only one.
const Exclusive LockMode = 1

// ErrDeadlock is returned when granting a lock would create a cycle in
// the waits-for graph; the requesting transaction should abort.
var ErrDeadlock = errors.New("txn: deadlock detected")

// ErrAborted is returned for operations on an aborted transaction.
var ErrAborted = errors.New("txn: transaction aborted")

// ErrTimeout is returned when a lock wait exceeds the statement
// deadline; the requesting transaction is aborted (freeing its locks)
// and may be retried.
var ErrTimeout = errors.New("txn: lock wait timeout")

type waiter struct {
	tx      ID
	granted chan error
}

// lockState is one resource's lock: its holder (0 when free) and the
// requests queued behind it in arrival order. A queued request always
// has a holder in front of it: whoever frees the lock hands it to the
// queue's head on the spot.
type lockState struct {
	holder ID
	queue  []*waiter
}

// lockShards partitions the lock table so unrelated fragments never
// contend on one mutex. Power of two; small enough that a per-shard
// sweep at transaction end stays cheap.
const lockShards = 16

// lockShard is one partition of the lock table: the lock states of the
// resources hashing here plus, per transaction, the locks it holds in
// this shard.
type lockShard struct {
	mu    sync.Mutex
	locks map[string]*lockState
	held  map[ID][]string
}

// LockManager grants fragment-granularity locks under strict 2PL: locks
// accumulate during the transaction and are released together at end.
//
// The lock table is sharded by a hash of the resource name, so point
// DML against different fragments takes different mutexes — the shared
// hot path of concurrent pipelined statements. The waits-for graph
// stays global (guarded by waitMu): a deadlock cycle can span shards,
// and every edge insertion plus its cycle check is serialized on
// waitMu, so whichever transaction adds the closing edge of a genuine
// cycle is guaranteed to see the whole cycle and become the victim.
// The lock order is always shard mutex → waitMu, never the reverse.
//
// Detection is conservatively eager: a cycle check may observe an edge
// whose waiter is concurrently being granted on another shard, making
// that transaction a victim of a cycle that was just breaking up. Such
// spurious victims are rare, safe (the victim aborts and retries, as
// deadlock victims must anyway), and the price of not serializing
// every grant behind one global mutex; a true cycle is never missed.
type LockManager struct {
	shards [lockShards]lockShard

	waitMu sync.Mutex
	waits  map[ID]map[ID]struct{} // edge tx -> txs it waits for

	acquires atomic.Int64 // total Acquire calls (tests assert lock-free reads)
}

// NewLockManager creates an empty lock manager.
func NewLockManager() *LockManager {
	lm := &LockManager{waits: map[ID]map[ID]struct{}{}}
	for i := range lm.shards {
		lm.shards[i].locks = map[string]*lockState{}
		lm.shards[i].held = map[ID][]string{}
	}
	return lm
}

// shardOf routes a resource name to its shard (FNV-1a).
func (lm *LockManager) shardOf(resource string) *lockShard {
	h := uint32(2166136261)
	for i := 0; i < len(resource); i++ {
		h ^= uint32(resource[i])
		h *= 16777619
	}
	return &lm.shards[h&(lockShards-1)]
}

// Acquire blocks until tx holds the resource, or returns ErrDeadlock if
// waiting would create a waits-for cycle.
func (lm *LockManager) Acquire(tx ID, resource string, mode LockMode) error {
	return lm.AcquireTimeout(tx, resource, mode, 0)
}

// AcquireTimeout is Acquire with a lock-wait deadline: when timeout is
// positive and the lock is not granted within it, the request is
// withdrawn and ErrTimeout returned (the statement's deadline expired
// while blocked — the caller aborts the transaction, freeing its
// locks). A grant that races the deadline wins: the lock is held and
// the call succeeds.
func (lm *LockManager) AcquireTimeout(tx ID, resource string, _ LockMode, timeout time.Duration) error {
	lm.acquires.Add(1)
	sh := lm.shardOf(resource)
	sh.mu.Lock()
	st := sh.locks[resource]
	if st == nil {
		st = &lockState{}
		sh.locks[resource] = st
	}
	switch st.holder {
	case tx:
		sh.mu.Unlock()
		return nil
	case 0:
		lm.grant(sh, st, tx, resource)
		sh.mu.Unlock()
		return nil
	}
	// Must wait, behind the holder and every request queued ahead (FIFO):
	// record those waits-for edges and check for a cycle. The edges are
	// published and checked under waitMu while the shard mutex is still
	// held, so the blockers read from this shard cannot change underneath
	// the check.
	blockers := map[ID]struct{}{st.holder: {}}
	for _, w := range st.queue {
		if w.tx != tx {
			blockers[w.tx] = struct{}{}
		}
	}
	lm.waitMu.Lock()
	lm.waits[tx] = blockers
	if lm.wouldDeadlock(tx) {
		delete(lm.waits, tx)
		lm.waitMu.Unlock()
		sh.mu.Unlock()
		return fmt.Errorf("%w: %d requesting %q", ErrDeadlock, tx, resource)
	}
	lm.waitMu.Unlock()
	w := &waiter{tx: tx, granted: make(chan error, 1)}
	st.queue = append(st.queue, w)
	sh.mu.Unlock()

	if timeout <= 0 {
		return <-w.granted
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-w.granted:
		return err
	case <-timer.C:
	}
	// Deadline expired: withdraw the waiter. The grant path sends on
	// w.granted while holding sh.mu, so if we no longer find w in the
	// queue under sh.mu, a verdict is already buffered — take it (the
	// grant won the race; the lock is held). A request still queued has a
	// holder in front, so withdrawing it grants nobody.
	sh.mu.Lock()
	removed := false
	if st := sh.locks[resource]; st != nil {
		filtered := st.queue[:0]
		for _, q := range st.queue {
			if q == w {
				removed = true
				continue
			}
			filtered = append(filtered, q)
		}
		st.queue = filtered
	}
	sh.mu.Unlock()
	if !removed {
		return <-w.granted
	}
	lm.waitMu.Lock()
	delete(lm.waits, tx)
	lm.waitMu.Unlock()
	return fmt.Errorf("%w: %d requesting %q after %v", ErrTimeout, tx, resource, timeout)
}

// grant makes tx the holder. Caller holds sh.mu.
func (lm *LockManager) grant(sh *lockShard, st *lockState, tx ID, resource string) {
	st.holder = tx
	sh.held[tx] = append(sh.held[tx], resource)
	lm.waitMu.Lock()
	delete(lm.waits, tx)
	lm.waitMu.Unlock()
}

// wouldDeadlock reports whether tx participates in a waits-for cycle.
// Caller holds lm.waitMu.
func (lm *LockManager) wouldDeadlock(tx ID) bool {
	// DFS from tx through the waits-for graph looking for a path back.
	seen := map[ID]struct{}{}
	var stack []ID
	for b := range lm.waits[tx] {
		stack = append(stack, b)
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == tx {
			return true
		}
		if _, dup := seen[cur]; dup {
			continue
		}
		seen[cur] = struct{}{}
		for b := range lm.waits[cur] {
			stack = append(stack, b)
		}
	}
	return false
}

// ReleaseAll frees every lock tx holds, handing each to the head of its
// queue, and cancels tx's queued waits (strict 2PL end-of-transaction
// release).
func (lm *LockManager) ReleaseAll(tx ID) {
	lm.waitMu.Lock()
	delete(lm.waits, tx)
	lm.waitMu.Unlock()
	for i := range lm.shards {
		sh := &lm.shards[i]
		sh.mu.Lock()
		for _, resource := range sh.held[tx] {
			st := sh.locks[resource]
			if len(st.queue) == 0 {
				delete(sh.locks, resource)
				continue
			}
			w := st.queue[0]
			st.queue = st.queue[1:]
			lm.grant(sh, st, w.tx, resource)
			w.granted <- nil
		}
		delete(sh.held, tx)
		// Remove tx from queues it might still sit in (abort while
		// waiting) in this shard; their holders are other transactions.
		for _, st := range sh.locks {
			filtered := st.queue[:0]
			for _, w := range st.queue {
				if w.tx == tx {
					w.granted <- ErrAborted
					continue
				}
				filtered = append(filtered, w)
			}
			st.queue = filtered
		}
		sh.mu.Unlock()
	}
	// Drop waits-for edges pointing at tx: anything that was queued
	// behind it has been granted (or still waits on the new holder, whose
	// edge it also recorded).
	lm.waitMu.Lock()
	for _, blockers := range lm.waits {
		delete(blockers, tx)
	}
	lm.waitMu.Unlock()
}

// Acquires returns the total number of Acquire calls seen, including
// re-entrant and failed ones. Isolation tests diff this counter around a
// SELECT to prove that snapshot reads never touch the lock manager.
func (lm *LockManager) Acquires() int64 { return lm.acquires.Load() }

// HeldBy returns the resources tx currently holds.
func (lm *LockManager) HeldBy(tx ID) []string {
	var out []string
	for i := range lm.shards {
		sh := &lm.shards[i]
		sh.mu.Lock()
		out = append(out, sh.held[tx]...)
		sh.mu.Unlock()
	}
	return out
}

// Holder returns the transaction holding the resource, if any.
func (lm *LockManager) Holder(resource string) (ID, bool) {
	sh := lm.shardOf(resource)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st := sh.locks[resource]; st != nil && st.holder != 0 {
		return st.holder, true
	}
	return 0, false
}

// queuedOn reports how many waiters are queued on the resource (tests).
func (lm *LockManager) queuedOn(resource string) int {
	sh := lm.shardOf(resource)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st := sh.locks[resource]; st != nil {
		return len(st.queue)
	}
	return 0
}
