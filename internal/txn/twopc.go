package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
)

// Fault points in the coordinator's two crash windows: after a
// unanimous yes-vote but before the decision is logged (recovery must
// presume abort), and after the decision is durable but before any
// participant learns it (recovery must resolve to commit).
var (
	fpAfterPrepare = fault.Register("twopc.after-prepare")
	fpBeforeCommit = fault.Register("twopc.before-commit")
)

// Participant is a two-phase-commit participant — in PRISMA, a
// One-Fragment Manager holding updates for the transaction. Prepare must
// make the transaction's effects durable-on-vote (flush redo to stable
// storage) before voting yes.
type Participant interface {
	// Name identifies the participant (stable per OFM).
	Name() string
	// Prepare flushes and votes: a nil return is a yes vote.
	Prepare(tx ID) error
	// Commit finalizes after a unanimous yes, stamping the transaction's
	// versions with the commit timestamp ts. It may fail transiently;
	// the coordinator retries, and a participant that stays unreachable
	// is left prepared for recovery to resolve from the decision log.
	Commit(tx ID, ts uint64) error
	// Abort rolls back; called on any no vote or on coordinator abort.
	Abort(tx ID) error
}

// DecisionLogger is the coordinator's durable decision record: a commit
// decision is forced here after a unanimous yes-vote and before any
// participant commits, and recovery consults it to resolve prepared
// transactions (no entry means presumed abort). wal.DecisionLog is the
// stable-storage implementation.
type DecisionLogger interface {
	RecordCommit(tx ID, ts uint64) error
	Decision(tx ID) (ts uint64, commit bool, known bool)
}

// ErrIndeterminate reports a commit whose decision is durably logged but
// whose phase 2 did not complete: the transaction IS committed — the
// decision log guarantees recovery will finish applying it — but the
// caller must not assume its effects are visible until restart. It is
// deliberately not retryable: re-running the transaction could apply it
// twice.
var ErrIndeterminate = errors.New("txn: commit outcome in doubt (decision logged; resolved at recovery)")

// Phase-2 retry policy: a transient participant failure (the kind the
// Error fault mode injects) is retried a few times with a short backoff
// before the participant is abandoned to recovery.
const (
	commitRetries   = 3
	commitRetryBase = 100 * time.Microsecond
)

// onEach runs fn on every participant and returns the failures in
// participant order. Two or more participants run concurrently — the
// paper's coarse-grain parallelism applies to the commit protocol as
// well: each flushes its own log. A lone participant (every autocommit
// point write, and a transfer inside one fragment) has nothing to
// overlap with, so it runs on the caller instead of on a fresh goroutine
// whose stack is grown and copied in every phase.
func onEach(parts []Participant, fn func(Participant) error) []error {
	if len(parts) == 1 {
		if err := fn(parts[0]); err != nil {
			return []error{err}
		}
		return nil
	}
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(p)
		}()
	}
	wg.Wait()
	failed := errs[:0]
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	return failed
}

// runTwoPhaseCommit drives the protocol: prepare everywhere collecting
// every veto, a durable commit decision, then commit everywhere with
// per-participant retry. Abort and commit errors are awaited and
// surfaced, never dropped in goroutines.
func (m *Manager) runTwoPhaseCommit(tx ID, ts uint64, parts []Participant) error {
	if len(parts) == 0 {
		return nil
	}
	// Phase 1: prepare.
	vetoes := onEach(parts, func(p Participant) error {
		if err := p.Prepare(tx); err != nil {
			return fmt.Errorf("participant %s voted no: %w", p.Name(), err)
		}
		return nil
	})
	if out := fpAfterPrepare.Eval(); out != nil {
		// The coordinator dies between collecting votes and logging the
		// decision: no decision exists, so this is an abort.
		vetoes = append(vetoes, fmt.Errorf("coordinator failed after prepare: %w", out.Err))
	}
	if len(vetoes) == 0 && m != nil && m.decisions != nil {
		// The decision point: once this force returns, the transaction is
		// committed no matter what happens to coordinator or participants.
		// If the force fails the decision was never made — abort.
		if err := m.decisions.RecordCommit(tx, ts); err != nil {
			vetoes = append(vetoes, fmt.Errorf("logging commit decision: %w", err))
		}
	}
	if len(vetoes) > 0 {
		// A vetoed or undecided transaction is cleanly aborted: retrying
		// it is safe, so the error classifies as ErrAborted. Abort errors
		// are awaited and reported; a participant whose abort failed
		// (e.g. its disk died) stays prepared and is presumed aborted at
		// recovery, which reaches the same outcome.
		err := fmt.Errorf("2pc: %w: %w", ErrAborted, errors.Join(vetoes...))
		abortErrs := onEach(parts, func(p Participant) error {
			if err := p.Abort(tx); err != nil {
				return fmt.Errorf("participant %s abort: %w", p.Name(), err)
			}
			return nil
		})
		if len(abortErrs) > 0 {
			err = fmt.Errorf("%w (abort phase: %v)", err, errors.Join(abortErrs...))
		}
		return err
	}
	if out := fpBeforeCommit.Eval(); out != nil {
		// The coordinator dies after the decision is durable but before
		// any participant learns it: the classic in-doubt window. No
		// aborts — the decision stands; recovery commits the prepared
		// participants from the decision log.
		return fmt.Errorf("2pc: %w: %v", ErrIndeterminate, out.Err)
	}
	// Phase 2: commit, retrying each participant through transient
	// failures.
	failed := onEach(parts, func(p Participant) error {
		if err := commitWithRetry(tx, ts, p); err != nil {
			return fmt.Errorf("participant %s: %w", p.Name(), err)
		}
		return nil
	})
	if len(failed) > 0 {
		return fmt.Errorf("2pc: %w: %v", ErrIndeterminate, errors.Join(failed...))
	}
	return nil
}

// commitWithRetry drives one participant's commit through transient
// failures with a short linear backoff.
func commitWithRetry(tx ID, ts uint64, p Participant) error {
	var err error
	for attempt := 0; attempt <= commitRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(commitRetryBase * time.Duration(attempt))
		}
		if err = p.Commit(tx, ts); err == nil {
			return nil
		}
	}
	return fmt.Errorf("commit failed after %d retries: %w", commitRetries, err)
}
