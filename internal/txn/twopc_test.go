package txn

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakePart is a scriptable participant.
type fakePart struct {
	name       string
	prepareErr error
	abortErr   error
	commitErrs int // first N Commit calls fail
	commitErr  error

	mu       sync.Mutex
	prepares int
	commits  int
	aborts   int
}

func (p *fakePart) Name() string { return p.name }

func (p *fakePart) Prepare(tx ID) error {
	p.mu.Lock()
	p.prepares++
	p.mu.Unlock()
	return p.prepareErr
}

func (p *fakePart) Commit(tx ID, ts uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.commits++
	if p.commitErrs > 0 {
		p.commitErrs--
		if p.commitErr != nil {
			return p.commitErr
		}
		return fmt.Errorf("transient commit failure on %s", p.name)
	}
	return nil
}

func (p *fakePart) Abort(tx ID) error {
	p.mu.Lock()
	p.aborts++
	p.mu.Unlock()
	return p.abortErr
}

// fakeDecisions is an in-memory DecisionLogger.
type fakeDecisions struct {
	mu        sync.Mutex
	recorded  map[ID]uint64
	recordErr error
}

func newFakeDecisions() *fakeDecisions { return &fakeDecisions{recorded: map[ID]uint64{}} }

func (d *fakeDecisions) RecordCommit(tx ID, ts uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.recordErr != nil {
		return d.recordErr
	}
	d.recorded[tx] = ts
	return nil
}

func (d *fakeDecisions) Decision(tx ID) (uint64, bool, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ts, ok := d.recorded[tx]
	return ts, ok, ok
}

func TestTwoPCCollectsAllVetoes(t *testing.T) {
	m := NewManager()
	a := &fakePart{name: "a", prepareErr: errors.New("a is full")}
	b := &fakePart{name: "b"}
	c := &fakePart{name: "c", prepareErr: errors.New("c is broken")}
	err := m.runTwoPhaseCommit(1, 10, []Participant{a, b, c})
	if err == nil {
		t.Fatal("vetoed 2PC must fail")
	}
	for _, frag := range []string{"a is full", "c is broken"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing veto %q", err, frag)
		}
	}
	// A vetoed transaction is cleanly aborted, hence retryable.
	if !IsRetryable(err) {
		t.Errorf("veto error not retryable: %v", err)
	}
	for _, p := range []*fakePart{a, b, c} {
		if p.aborts != 1 {
			t.Errorf("participant %s aborted %d times, want 1", p.name, p.aborts)
		}
		if p.commits != 0 {
			t.Errorf("participant %s committed despite veto", p.name)
		}
	}
}

func TestTwoPCSurfacesAbortErrors(t *testing.T) {
	m := NewManager()
	a := &fakePart{name: "a", prepareErr: errors.New("veto")}
	b := &fakePart{name: "b", abortErr: errors.New("abort-disk-gone")}
	err := m.runTwoPhaseCommit(2, 10, []Participant{a, b})
	if err == nil || !strings.Contains(err.Error(), "abort-disk-gone") {
		t.Errorf("abort error dropped: %v", err)
	}
}

func TestTwoPCRetriesTransientCommit(t *testing.T) {
	m := NewManager()
	m.SetDecisionLog(newFakeDecisions())
	a := &fakePart{name: "a", commitErrs: 2} // fails twice, then succeeds
	b := &fakePart{name: "b"}
	if err := m.runTwoPhaseCommit(3, 30, []Participant{a, b}); err != nil {
		t.Fatalf("2PC failed despite transient-only errors: %v", err)
	}
	if a.commits != 3 {
		t.Errorf("participant a saw %d commit attempts, want 3", a.commits)
	}
	if a.aborts != 0 || b.aborts != 0 {
		t.Error("no participant may abort after the decision is logged")
	}
}

func TestTwoPCIndeterminateAfterDecision(t *testing.T) {
	m := NewManager()
	dl := newFakeDecisions()
	m.SetDecisionLog(dl)
	a := &fakePart{name: "a", commitErrs: commitRetries + 10} // never succeeds
	b := &fakePart{name: "b"}
	err := m.runTwoPhaseCommit(4, 40, []Participant{a, b})
	if !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("persistent commit failure after decision = %v, want ErrIndeterminate", err)
	}
	if IsRetryable(err) {
		t.Error("an indeterminate commit must NOT be retryable")
	}
	if _, _, known := dl.Decision(4); !known {
		t.Error("decision must be logged before phase 2")
	}
	if a.aborts != 0 {
		t.Error("decided transaction must never be aborted")
	}
	if b.commits == 0 {
		t.Error("healthy participant should have committed")
	}
}

func TestTwoPCDecisionLogFailureAborts(t *testing.T) {
	m := NewManager()
	dl := newFakeDecisions()
	dl.recordErr = errors.New("decision disk dead")
	m.SetDecisionLog(dl)
	a := &fakePart{name: "a"}
	err := m.runTwoPhaseCommit(5, 50, []Participant{a})
	if err == nil || !strings.Contains(err.Error(), "decision disk dead") {
		t.Fatalf("decision-log failure must abort: %v", err)
	}
	if !IsRetryable(err) {
		t.Error("an undecided (aborted) commit is retryable")
	}
	if a.commits != 0 || a.aborts != 1 {
		t.Errorf("participant saw commits=%d aborts=%d, want 0/1", a.commits, a.aborts)
	}
}

// stackPart records, per protocol call, whether the calling test's frame
// is on the stack — true only when the call runs on the goroutine that
// called runTwoPhaseCommit.
type stackPart struct {
	fakePart
	onCaller map[string]bool
}

func (p *stackPart) note(call string) {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".TestTwoPCLoneParticipantRunsOnCaller") {
			p.onCaller[call] = true
			return
		}
		if !more {
			p.onCaller[call] = false
			return
		}
	}
}

func (p *stackPart) Prepare(tx ID) error { p.note("prepare"); return p.fakePart.Prepare(tx) }
func (p *stackPart) Commit(tx ID, ts uint64) error {
	p.note("commit")
	return p.fakePart.Commit(tx, ts)
}
func (p *stackPart) Abort(tx ID) error { p.note("abort"); return p.fakePart.Abort(tx) }

// TestTwoPCLoneParticipantRunsOnCaller pins the autocommit point write's
// commit path: one participant has nothing to run in parallel with, so
// prepare, commit and abort happen on the committing goroutine, not on a
// goroutine pair spawned (and its stacks grown) per commit.
func TestTwoPCLoneParticipantRunsOnCaller(t *testing.T) {
	m := NewManager()
	m.SetDecisionLog(newFakeDecisions())
	ok := &stackPart{fakePart: fakePart{name: "a"}, onCaller: map[string]bool{}}
	if err := m.runTwoPhaseCommit(1, 10, []Participant{ok}); err != nil {
		t.Fatal(err)
	}
	veto := &stackPart{fakePart: fakePart{name: "b", prepareErr: errors.New("full")}, onCaller: map[string]bool{}}
	if err := m.runTwoPhaseCommit(2, 20, []Participant{veto}); !IsRetryable(err) {
		t.Fatalf("vetoed lone participant = %v, want a retryable abort", err)
	}
	for call, p := range map[string]*stackPart{"prepare": ok, "commit": ok, "abort": veto} {
		on, called := p.onCaller[call]
		if !called || !on {
			t.Errorf("%s of a lone participant: called=%v on the committing goroutine=%v, want both", call, called, on)
		}
	}

	// The cost that goes with the goroutines: the lone commit allocates
	// its two phase closures and nothing per goroutine.
	plain := []Participant{&fakePart{name: "c"}}
	if n := testing.AllocsPerRun(200, func() {
		if err := (*Manager)(nil).runTwoPhaseCommit(3, 30, plain); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("lone-participant 2PC allocates %v times, want <= 2", n)
	}
}

// barrier releases its waiters once n of them have arrived, then resets
// for the next phase.
type barrier struct {
	mu      sync.Mutex
	n, here int
	release chan struct{}
}

func (b *barrier) wait() error {
	b.mu.Lock()
	b.here++
	release := b.release
	if b.here == b.n {
		b.here, b.release = 0, make(chan struct{})
		close(release)
	}
	b.mu.Unlock()
	select {
	case <-release:
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("participants never met: the phase ran them one after another")
	}
}

// barrierPart's calls return only once every participant of the phase
// is inside the same call.
type barrierPart struct {
	fakePart
	b *barrier
}

func (p *barrierPart) Prepare(tx ID) error {
	if err := p.b.wait(); err != nil {
		return err
	}
	return p.fakePart.Prepare(tx)
}

func (p *barrierPart) Commit(tx ID, ts uint64) error {
	if err := p.b.wait(); err != nil {
		return err
	}
	return p.fakePart.Commit(tx, ts)
}

func (p *barrierPart) Abort(tx ID) error {
	if err := p.b.wait(); err != nil {
		return err
	}
	return p.fakePart.Abort(tx)
}

// TestTwoPCSeveralParticipantsRunConcurrently: with two or more
// participants every phase still fans out — each One-Fragment Manager
// flushes its own log while the others flush theirs. Participants that
// rendezvous inside each call would time out if run in turn.
func TestTwoPCSeveralParticipantsRunConcurrently(t *testing.T) {
	for _, n := range []int{2, 5} {
		for _, veto := range []bool{false, true} {
			b := &barrier{n: n, release: make(chan struct{})}
			parts := make([]Participant, n)
			fakes := make([]*barrierPart, n)
			for i := range parts {
				fakes[i] = &barrierPart{fakePart: fakePart{name: fmt.Sprint("p", i)}, b: b}
				parts[i] = fakes[i]
			}
			if veto {
				fakes[n-1].prepareErr = errors.New("full")
			}
			err := NewManager().runTwoPhaseCommit(ID(n), 10, parts)
			if veto && (!IsRetryable(err) || strings.Contains(err.Error(), "never met")) {
				t.Errorf("%d participants, one veto: %v, want a clean retryable abort", n, err)
			}
			if !veto && err != nil {
				t.Errorf("%d participants: %v", n, err)
			}
			wantCommits, wantAborts := 1, 0
			if veto {
				wantCommits, wantAborts = 0, 1
			}
			for _, p := range fakes {
				if p.commits != wantCommits || p.aborts != wantAborts {
					t.Errorf("%d participants, veto=%v: %s saw commits=%d aborts=%d", n, veto, p.name, p.commits, p.aborts)
				}
			}
		}
	}
}

func TestTxnCommitIndeterminateCountsCommitted(t *testing.T) {
	m := NewManager()
	m.SetDecisionLog(newFakeDecisions())
	tx := m.Begin()
	tx.Enlist(&fakePart{name: "a", commitErrs: commitRetries + 10})
	err := tx.Commit()
	if !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("Commit = %v, want ErrIndeterminate", err)
	}
	if tx.State() != Committed {
		t.Errorf("state = %s; a decided transaction is committed", tx.State())
	}
	if m.Commits() != 1 || m.Aborts() != 0 {
		t.Errorf("commits=%d aborts=%d, want 1/0", m.Commits(), m.Aborts())
	}
}

func TestLockWaitTimeout(t *testing.T) {
	m := NewManager()
	holder := m.Begin()
	if err := holder.Lock("frag", Exclusive); err != nil {
		t.Fatal(err)
	}
	blocked := m.Begin()
	blocked.SetLockTimeout(30 * time.Millisecond)
	start := time.Now()
	err := blocked.Lock("frag", Exclusive)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Lock = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("timed out after %v", elapsed)
	}
	if !IsRetryable(err) {
		t.Error("lock timeout must be retryable")
	}
	if blocked.State() != Aborted {
		t.Errorf("blocked txn state = %s, want aborted (locks freed)", blocked.State())
	}
	// The holder is unaffected and the withdrawn waiter left no residue:
	// a third transaction can acquire once the holder commits.
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	third := m.Begin()
	third.SetLockTimeout(time.Second)
	if err := third.Lock("frag", Exclusive); err != nil {
		t.Fatalf("post-timeout acquire: %v", err)
	}
	third.Abort()
}

func TestLockTimeoutGrantRaceWins(t *testing.T) {
	// A grant landing at the same moment as the deadline must win: the
	// caller holds the lock and the call succeeds.
	m := NewManager()
	for i := 0; i < 50; i++ {
		holder := m.Begin()
		if err := holder.Lock("r", Exclusive); err != nil {
			t.Fatal(err)
		}
		waiter := m.Begin()
		waiter.SetLockTimeout(time.Millisecond)
		done := make(chan error, 1)
		go func() { done <- waiter.Lock("r", Exclusive) }()
		time.Sleep(time.Millisecond) // release near the deadline
		holder.Abort()
		err := <-done
		if err != nil && !errors.Is(err, ErrTimeout) {
			t.Fatalf("iteration %d: %v", i, err)
		}
		waiter.Abort()
	}
}

func TestLockTimeoutUnblocksQueueBehind(t *testing.T) {
	// A waiter behind a timed-out waiter is granted when the holder
	// releases: the withdrawn request leaves no residue in the queue.
	m := NewManager()
	holder := m.Begin()
	if err := holder.Lock("r", Exclusive); err != nil {
		t.Fatal(err)
	}
	early := m.Begin()
	early.SetLockTimeout(200 * time.Millisecond) // long enough for late to queue behind it
	earlyDone := make(chan error, 1)
	go func() { earlyDone <- early.Lock("r", Exclusive) }()
	waitForQueued(t, m.Locks(), "r", 1)
	late := m.Begin()
	lateDone := make(chan error, 1)
	go func() { lateDone <- late.Lock("r", Exclusive) }()
	waitForQueued(t, m.Locks(), "r", 2)
	if err := <-earlyDone; !errors.Is(err, ErrTimeout) {
		t.Fatalf("early waiter = %v, want timeout", err)
	}
	select {
	case err := <-lateDone:
		t.Fatalf("late waiter returned %v while the holder still holds", err)
	default:
	}
	holder.Abort()
	select {
	case err := <-lateDone:
		if err != nil {
			t.Fatalf("late waiter = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("late waiter still blocked after the holder released")
	}
	late.Abort()
}
