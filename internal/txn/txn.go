package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// State is a transaction's lifecycle state.
type State uint8

// Transaction states.
const (
	Active State = iota
	Preparing
	Committed
	Aborted
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Preparing:
		return "preparing"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	}
	return "?"
}

// Txn is one transaction's control block.
type Txn struct {
	id  ID
	mgr *Manager

	mu           sync.Mutex
	state        State
	participants []Participant

	snapTS      uint64 // snapshot timestamp, pinned lazily at first read
	snapRelease func()

	lockTimeout time.Duration // per-statement lock-wait deadline; 0 = wait forever
}

// ID returns the transaction id.
func (t *Txn) ID() ID { return t.id }

// State returns the current lifecycle state.
func (t *Txn) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Snapshot returns the transaction's snapshot timestamp, pinning the
// current watermark on first use. All of the transaction's reads see
// the versions committed at or before this timestamp, plus its own
// pending writes.
func (t *Txn) Snapshot() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.snapRelease == nil && t.state == Active {
		t.snapTS, t.snapRelease = t.mgr.PinSnapshot()
	}
	return t.snapTS
}

// SetLockTimeout bounds every subsequent lock wait: a statement that
// cannot acquire its fragment lock within d aborts the transaction with
// ErrTimeout (retryable), freeing whatever locks it held. Zero waits
// forever. Sessions set this from the statement-timeout configuration.
func (t *Txn) SetLockTimeout(d time.Duration) {
	t.mu.Lock()
	t.lockTimeout = d
	t.mu.Unlock()
}

// Lock acquires a fragment lock under strict 2PL. On deadlock the
// transaction is aborted and ErrDeadlock returned; past the lock
// timeout it is aborted with ErrTimeout.
func (t *Txn) Lock(resource string, mode LockMode) error {
	if st := t.State(); st != Active {
		return fmt.Errorf("txn %d: lock in state %s", t.id, st)
	}
	t.mu.Lock()
	d := t.lockTimeout
	t.mu.Unlock()
	if err := t.mgr.locks.AcquireTimeout(t.id, resource, mode, d); err != nil {
		t.Abort()
		return err
	}
	return nil
}

// Enlist registers a two-phase-commit participant; duplicates (by Name)
// collapse.
func (t *Txn) Enlist(p Participant) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, q := range t.participants {
		if q.Name() == p.Name() {
			return
		}
	}
	t.participants = append(t.participants, p)
}

// Participants returns the enlisted participants.
func (t *Txn) Participants() []Participant {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Participant(nil), t.participants...)
}

// Commit runs two-phase commit over the enlisted participants and
// releases all locks. With no participants it is a trivial local commit.
// A transaction with participants draws a commit timestamp; its versions
// become visible to snapshots taken after the watermark passes it.
func (t *Txn) Commit() error {
	t.mu.Lock()
	if t.state != Active {
		st := t.state
		t.mu.Unlock()
		return fmt.Errorf("txn %d: commit in state %s", t.id, st)
	}
	t.state = Preparing
	parts := append([]Participant(nil), t.participants...)
	t.mu.Unlock()

	var ts uint64
	if len(parts) > 0 {
		ts = t.mgr.beginCommit()
	}
	err := t.mgr.runTwoPhaseCommit(t.id, ts, parts)
	if ts != 0 {
		// The watermark may pass this commit only once its versions are
		// fully applied (or it aborted) on every participant.
		t.mgr.endCommit(ts)
	}
	if err != nil {
		if errors.Is(err, ErrIndeterminate) {
			// The commit decision is durably logged: the transaction IS
			// committed and must not be rolled back — recovery finishes
			// applying it on any participant that never heard. Report the
			// in-doubt outcome to the caller, who must not blindly retry.
			t.mgr.waitCommitShipped(ts)
			t.mu.Lock()
			t.state = Committed
			t.mu.Unlock()
			t.mgr.finish(t)
			return fmt.Errorf("txn %d: %w", t.id, err)
		}
		// Phase 2 already aborted the participants; only roll back local
		// state here.
		t.rollback(false)
		return fmt.Errorf("txn %d: %w", t.id, err)
	}
	t.mgr.waitCommitShipped(ts)
	t.mu.Lock()
	t.state = Committed
	t.mu.Unlock()
	t.mgr.finish(t)
	return nil
}

// Abort rolls the transaction back: participants abort, locks release. Aborting twice is a no-op.
func (t *Txn) Abort() {
	t.mu.Lock()
	if t.state == Committed || t.state == Aborted {
		t.mu.Unlock()
		return
	}
	t.state = Aborted
	t.mu.Unlock()
	t.rollback(true)
}

// rollback reverses the transaction; abortParticipants is false when the
// two-phase-commit protocol has already sent aborts.
func (t *Txn) rollback(abortParticipants bool) {
	t.mu.Lock()
	parts := append([]Participant(nil), t.participants...)
	t.state = Aborted
	t.mu.Unlock()
	if abortParticipants {
		for _, p := range parts {
			p.Abort(t.id)
		}
	}
	t.mgr.finish(t)
}

// Manager creates transactions and owns the lock manager. The paper runs
// one transaction-manager instance per query; Manager is cheap enough to
// share or instantiate per session.
type Manager struct {
	locks  *LockManager
	nextID atomic.Uint64

	mu     sync.Mutex
	active map[ID]*Txn

	commits atomic.Int64
	aborts  atomic.Int64

	// decisions is the coordinator's durable decision log, set once at
	// engine construction (nil disables decision logging; 2PC then runs
	// the legacy protocol without an in-doubt commit guarantee).
	decisions DecisionLogger

	// Commit clock and snapshot pins (see mvcc.go).
	tsMu      sync.Mutex
	lastTS    uint64              // last allocated commit timestamp
	inflight  map[uint64]struct{} // allocated but not yet fully applied
	watermark uint64              // all commits <= watermark are applied
	pins      map[uint64]int      // snapshot timestamp -> pin refcount

	// commitWait, when set, blocks a committing transaction after its
	// versions are applied but before its locks release and its caller
	// is acknowledged — the replication hook: a primary waits until the
	// commit has shipped to every live subscriber, so an acknowledged
	// commit is never lost to a primary crash plus failover.
	commitWait atomic.Pointer[func(ts uint64)]
}

// SetCommitWait installs (or, with nil, removes) the post-apply commit
// acknowledgment gate. See the commitWait field.
func (m *Manager) SetCommitWait(fn func(ts uint64)) {
	if fn == nil {
		m.commitWait.Store(nil)
		return
	}
	m.commitWait.Store(&fn)
}

// waitCommitShipped runs the commit acknowledgment gate, if installed.
func (m *Manager) waitCommitShipped(ts uint64) {
	if ts == 0 {
		return
	}
	if fn := m.commitWait.Load(); fn != nil {
		(*fn)(ts)
	}
}

// NewManager creates a transaction manager with a fresh lock space.
func NewManager() *Manager {
	return &Manager{
		locks:    NewLockManager(),
		active:   map[ID]*Txn{},
		inflight: map[uint64]struct{}{},
		pins:     map[uint64]int{},
	}
}

// SetDecisionLog installs the coordinator's durable decision log.
// Call once, before the manager carries traffic.
func (m *Manager) SetDecisionLog(dl DecisionLogger) { m.decisions = dl }

// DecisionLog returns the installed decision log (nil if none).
func (m *Manager) DecisionLog() DecisionLogger { return m.decisions }

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	t := &Txn{id: ID(m.nextID.Add(1)), mgr: m, state: Active}
	m.mu.Lock()
	m.active[t.id] = t
	m.mu.Unlock()
	return t
}

// finish releases locks and bookkeeping once a txn reaches a final state.
func (m *Manager) finish(t *Txn) {
	t.mu.Lock()
	rel := t.snapRelease
	t.snapRelease = nil
	t.mu.Unlock()
	if rel != nil {
		rel()
	}
	m.locks.ReleaseAll(t.id)
	m.mu.Lock()
	_, was := m.active[t.id]
	delete(m.active, t.id)
	m.mu.Unlock()
	if was {
		if t.State() == Committed {
			m.commits.Add(1)
		} else {
			m.aborts.Add(1)
		}
	}
}

// Locks exposes the lock manager (OFMs lock through the owning txn, but
// tests and tools can inspect).
func (m *Manager) Locks() *LockManager { return m.locks }

// ActiveCount returns the number of in-flight transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// Commits returns the number of committed transactions.
func (m *Manager) Commits() int64 { return m.commits.Load() }

// Aborts returns the number of aborted transactions.
func (m *Manager) Aborts() int64 { return m.aborts.Load() }
