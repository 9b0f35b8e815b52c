package client

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// RetryPolicy drives Retry: exponential backoff with seeded jitter
// around server-classified transient transaction failures. The zero
// value is a sensible default (5 attempts, 1ms..100ms backoff, ±50%
// jitter, IsRetryable classification).
type RetryPolicy struct {
	// MaxAttempts bounds total tries, including the first (default 5).
	MaxAttempts int
	// BaseBackoff is the sleep before the second attempt (default 1ms);
	// it doubles per retry up to MaxBackoff (default 100ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Jitter spreads each sleep uniformly within ±Jitter of itself
	// (default 0.5), so a herd of aborted transactions doesn't re-collide
	// in lockstep. Negative disables jitter.
	Jitter float64
	// Seed makes the jitter sequence deterministic for tests; 0 (the
	// default) derives a distinct seed per Do call that backs off, so
	// concurrent zero-value clients spread out instead of replaying the
	// identical schedule and re-colliding in lockstep.
	Seed int64
	// Classify decides whether an error is worth another attempt
	// (default IsRetryable). Transport errors must stay non-retryable
	// unless the caller knows the work is idempotent: a connection that
	// died during COMMIT may have committed.
	Classify func(error) bool

	// sleep overrides time.Sleep in tests; nil uses the real clock.
	sleep func(time.Duration)
}

// retrySeq decorrelates default jitter seeds: each Do call under
// Seed==0 that reaches a jittered backoff draws a fresh sequence number,
// mixed with the process start time so two processes started back to
// back differ too.
var (
	retrySeq  atomic.Int64
	retryBoot = time.Now().UnixNano()
)

// jitterSource builds the policy's jitter source. Seeding math/rand
// fills a 607-word table (4.9 KB), which costs more than the round trip
// Do usually wraps — so Do calls this on the first backoff that draws,
// never on the path of a call that succeeds.
func (p RetryPolicy) jitterSource() *rand.Rand {
	seed := p.Seed
	if seed == 0 {
		seed = retryBoot ^ (retrySeq.Add(1) * 0x9e3779b97f4a7c)
	}
	return rand.New(rand.NewSource(seed))
}

// Retry runs fn under the zero-value RetryPolicy.
func Retry(fn func() error) error {
	return RetryPolicy{}.Do(fn)
}

// Do runs fn until it succeeds, fails non-retryably, or the attempt
// budget is spent (the last error is returned wrapped, still matching
// errors.As/Is probes).
func (p RetryPolicy) Do(fn func() error) error {
	return p.DoContext(context.Background(), fn)
}

// DoContext is Do with cancellation: backoff sleeps are cut short when
// ctx is done, and no further attempt starts after cancellation — a
// caller whose statement deadline has already passed is not forced to
// sit through the rest of the backoff ladder. The context error is
// returned wrapped around the last attempt's error (when there was
// one), so errors.Is(err, context.DeadlineExceeded) works.
func (p RetryPolicy) DoContext(ctx context.Context, fn func() error) error {
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = 5
	}
	base := p.BaseBackoff
	if base <= 0 {
		base = time.Millisecond
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = 100 * time.Millisecond
	}
	jitter := p.Jitter
	if jitter == 0 {
		jitter = 0.5
	} else if jitter < 0 {
		jitter = 0
	}
	classify := p.Classify
	if classify == nil {
		classify = IsRetryable
	}
	var rng *rand.Rand // built by the first backoff that draws from it
	backoff := base
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err != nil {
				return fmt.Errorf("client: %w after %d attempts: %v", cerr, attempt-1, err)
			}
			return cerr
		}
		if err = fn(); err == nil || !classify(err) {
			return err
		}
		if attempt >= attempts {
			return fmt.Errorf("client: giving up after %d attempts: %w", attempts, err)
		}
		sleep := backoff
		if jitter > 0 {
			if rng == nil {
				rng = p.jitterSource()
			}
			sleep = time.Duration(float64(backoff) * (1 + jitter*(2*rng.Float64()-1)))
		}
		if p.sleep != nil {
			p.sleep(sleep)
		} else if done := ctx.Done(); done != nil {
			t := time.NewTimer(sleep)
			select {
			case <-done:
				t.Stop()
				return fmt.Errorf("client: %w after %d attempts: %v", ctx.Err(), attempt, err)
			case <-t.C:
			}
		} else {
			time.Sleep(sleep)
		}
		if backoff *= 2; backoff > maxB {
			backoff = maxB
		}
	}
}
