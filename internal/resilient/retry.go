package resilient

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// transientError marks an error as safe to retry. retryAfter > 0
// carries a server-instructed wait (an HTTP Retry-After header) that
// overrides the backoff schedule for the next attempt.
type transientError struct {
	err        error
	retryAfter time.Duration
}

// Error returns the wrapped error's message verbatim: transience is a
// programmatic classification, not a message decoration, so callers
// matching on error text see exactly what the operation reported.
func (e *transientError) Error() string { return e.err.Error() }

func (e *transientError) Unwrap() error { return e.err }

// Transient marks err as retryable. Only mark failures of idempotent
// operations: the Retrier re-executes anything marked transient.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// TransientAfter is Transient with a server-instructed minimum wait
// before the next attempt (Retry-After awareness).
func TransientAfter(err error, after time.Duration) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err, retryAfter: after}
}

// IsTransient reports whether err (or anything it wraps) was marked
// retryable via Transient/TransientAfter.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// RetryAfterHint extracts the server-instructed wait attached by
// TransientAfter, if any.
func RetryAfterHint(err error) (time.Duration, bool) {
	var te *transientError
	if errors.As(err, &te) && te.retryAfter > 0 {
		return te.retryAfter, true
	}
	return 0, false
}

// Retrier re-executes transient failures with capped exponential
// backoff and full jitter. The zero value is usable: 3 attempts,
// 100ms base, 5s cap, wall clock, math/rand jitter.
//
// Policy: only errors marked with Transient/TransientAfter retry —
// the caller asserts idempotence by marking, the Retrier never guesses.
// A Retry-After hint on the error overrides the backoff for that wait
// (clamped to MaxDelay so a hostile header cannot stall a worker).
type Retrier struct {
	// MaxAttempts is the total number of attempts including the first
	// (default 3; 1 disables retries).
	MaxAttempts int
	// BaseDelay seeds the backoff: attempt n waits a uniformly random
	// duration in (0, min(MaxDelay, BaseDelay·2ⁿ⁻¹)] — "full jitter",
	// which decorrelates a thundering herd better than equal or
	// proportional jitter (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps one wait (default 5s).
	MaxDelay time.Duration
	// Clock defaults to the wall clock.
	Clock Clock
	// Rand supplies the jitter uniform in [0,1) (default math/rand;
	// inject a fixed sequence for deterministic schedules).
	Rand func() float64
	// OnRetry, when non-nil, observes every retry the moment it is
	// scheduled (attempt just failed, delay about to be slept).
	OnRetry func(attempt int, delay time.Duration, err error)
}

func (r *Retrier) maxAttempts() int {
	if r == nil || r.MaxAttempts <= 0 {
		return 3
	}
	return r.MaxAttempts
}

func (r *Retrier) baseDelay() time.Duration {
	if r == nil || r.BaseDelay <= 0 {
		return 100 * time.Millisecond
	}
	return r.BaseDelay
}

func (r *Retrier) maxDelay() time.Duration {
	if r == nil || r.MaxDelay <= 0 {
		return 5 * time.Second
	}
	return r.MaxDelay
}

func (r *Retrier) clock() Clock {
	if r == nil || r.Clock == nil {
		return realClock{}
	}
	return r.Clock
}

func (r *Retrier) rand() float64 {
	if r == nil || r.Rand == nil {
		return rand.Float64()
	}
	return r.Rand()
}

// Do runs fn until it succeeds, fails permanently, exhausts the attempt
// count, or ctx ends. A nil *Retrier runs fn exactly once.
// The returned error is fn's last error (IsTransient still classifies
// it — exhaustion does not launder a transient failure into a permanent
// one).
func (r *Retrier) Do(ctx context.Context, fn func(ctx context.Context) error) error {
	max := 1
	if r != nil {
		max = r.maxAttempts()
	}
	var err error
	for attempt := 1; ; attempt++ {
		err = fn(ctx)
		if err == nil || !IsTransient(err) || attempt >= max {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		delay := r.delay(attempt, err)
		if r.OnRetry != nil {
			r.OnRetry(attempt, delay, err)
		}
		if r.clock().Sleep(ctx, delay) != nil {
			return err
		}
	}
}

// delay computes the wait after the attempt-th failure: the error's
// Retry-After hint when present, else full-jittered capped exponential
// backoff. Both are clamped to MaxDelay.
func (r *Retrier) delay(attempt int, err error) time.Duration {
	maxd := r.maxDelay()
	if after, ok := RetryAfterHint(err); ok {
		if after > maxd {
			return maxd
		}
		return after
	}
	ceil := r.baseDelay() << (attempt - 1)
	if ceil > maxd || ceil <= 0 { // <= 0: shift overflow
		ceil = maxd
	}
	d := time.Duration(r.rand() * float64(ceil))
	if d <= 0 {
		d = 1
	}
	return d
}
