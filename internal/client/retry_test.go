package client

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

func retryableErr() error {
	return &ServerError{Code: wire.ErrCodeRetryable, Msg: "txn: aborted (retry transaction)"}
}

func TestIsRetryable(t *testing.T) {
	if !IsRetryable(retryableErr()) {
		t.Error("retryable-coded ServerError must be retryable")
	}
	if !IsRetryable(&ServerError{Code: wire.ErrCodeDeadline, Msg: "timeout"}) {
		t.Error("deadline-coded ServerError must be retryable")
	}
	if IsRetryable(&ServerError{Msg: "table does not exist"}) {
		t.Error("generic ServerError must not be retryable")
	}
	if IsRetryable(errors.New("connection reset")) {
		t.Error("transport errors must not be retryable")
	}
	if IsRetryable(nil) {
		t.Error("nil is not retryable")
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := RetryPolicy{BaseBackoff: time.Microsecond}.Do(func() error {
		calls++
		if calls < 3 {
			return retryableErr()
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil/3", err, calls)
	}
}

func TestRetryStopsOnNonRetryable(t *testing.T) {
	calls := 0
	fatal := &ServerError{Msg: "syntax error"}
	err := RetryPolicy{BaseBackoff: time.Microsecond}.Do(func() error {
		calls++
		return fatal
	})
	if !errors.Is(err, fatal) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want immediate give-up", err, calls)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	calls := 0
	err := RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Microsecond}.Do(func() error {
		calls++
		return retryableErr()
	})
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
	// The wrapped error still answers errors.As probes.
	var se *ServerError
	if !errors.As(err, &se) || !se.Retryable() {
		t.Fatalf("exhausted error lost its cause: %v", err)
	}
}

func TestRetryCustomClassify(t *testing.T) {
	calls := 0
	sentinel := errors.New("flaky")
	err := RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: time.Microsecond,
		Classify:    func(err error) bool { return errors.Is(err, sentinel) },
	}.Do(func() error {
		calls++
		if calls == 1 {
			return sentinel
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

// sleepRecorder captures the backoff schedule without sleeping.
func sleepRecorder(out *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *out = append(*out, d) }
}

func TestRetryDefaultSeedsDecorrelate(t *testing.T) {
	// Two zero-value policies must NOT replay the identical jitter
	// schedule: a herd of aborted clients that backs off in lockstep
	// re-collides forever. (This was a real bug: Seed==0 fell back to a
	// shared constant.)
	run := func() []time.Duration {
		var sleeps []time.Duration
		p := RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, sleep: sleepRecorder(&sleeps)}
		p.Do(func() error { return retryableErr() })
		return sleeps
	}
	a, b := run(), run()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("want 5 sleeps each, got %d and %d", len(a), len(b))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("two default-seeded clients replayed the identical backoff schedule: %v", a)
	}
}

func TestRetryExplicitSeedDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var sleeps []time.Duration
		p := RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, Seed: 42, sleep: sleepRecorder(&sleeps)}
		p.Do(func() error { return retryableErr() })
		return sleeps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("sleep counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Seed!=0 must be deterministic; sleep %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestRetrySeed42Schedule pins the jitter schedule of an explicit seed
// to the values the eager source (built at the top of every Do, before
// PR 18) produced: building it on the first draw must not shift a draw.
// E17 passes Seed for reproducibility.
func TestRetrySeed42Schedule(t *testing.T) {
	golden := []time.Duration{873028, 1132000, 4416375, 5670549, 8701095, 28262185, 84024136}
	var sleeps []time.Duration
	p := RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Millisecond, Seed: 42, sleep: sleepRecorder(&sleeps)}
	p.Do(func() error { return retryableErr() })
	if len(sleeps) != len(golden) {
		t.Fatalf("got %d sleeps, want %d: %v", len(sleeps), len(golden), sleeps)
	}
	for i := range golden {
		if sleeps[i] != golden[i] {
			t.Errorf("sleep %d = %d ns, want %d ns", i, sleeps[i], golden[i])
		}
	}
}

// TestRetrySuccessAllocatesNothing: Retry wraps every operation of a
// well-behaved client and backs off in perhaps one of ten thousand, so
// the call that succeeds must not pay for the jitter source.
func TestRetrySuccessAllocatesNothing(t *testing.T) {
	for name, p := range map[string]RetryPolicy{"zero": {}, "seeded": {Seed: 42}} {
		if n := testing.AllocsPerRun(100, func() {
			if err := p.Do(func() error { return nil }); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s policy: a succeeding Do allocates %v times, want 0", name, n)
		}
	}
}

func TestDoContextStopsAtDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	calls := 0
	start := time.Now()
	err := RetryPolicy{MaxAttempts: 10, BaseBackoff: 10 * time.Second}.DoContext(ctx, func() error {
		calls++
		return retryableErr()
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("DoContext slept through the deadline: %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (deadline hit during first backoff)", calls)
	}
	// The underlying cause is still visible in the message.
	if !strings.Contains(err.Error(), "retry") {
		t.Fatalf("error lost its cause: %v", err)
	}
}

func TestDoContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := RetryPolicy{}.DoContext(ctx, func() error { calls++; return nil })
	if calls != 0 {
		t.Fatalf("fn ran %d times under a cancelled context", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}
