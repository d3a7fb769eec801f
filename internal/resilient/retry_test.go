package resilient

import (
	"context"
	"errors"
	"testing"
	"time"
)

func fixedRand(v float64) func() float64 { return func() float64 { return v } }

func TestRetrierPermanentErrorNoRetry(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	r := &Retrier{MaxAttempts: 5, Clock: clk, Rand: fixedRand(0.5)}
	calls := 0
	boom := errors.New("boom")
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (permanent errors must not retry)", calls)
	}
	if len(clk.Slept()) != 0 {
		t.Fatalf("slept %v, want none", clk.Slept())
	}
}

func TestRetrierTransientRetriesThenSucceeds(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	var retries []time.Duration
	r := &Retrier{
		MaxAttempts: 4,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    5 * time.Second,
		Clock:       clk,
		Rand:        fixedRand(0.5),
		OnRetry:     func(_ int, d time.Duration, _ error) { retries = append(retries, d) },
	}
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	// Full jitter with rand=0.5: attempt 1 waits 0.5·100ms, attempt 2
	// waits 0.5·200ms.
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	if len(retries) != len(want) {
		t.Fatalf("retries = %v, want %v", retries, want)
	}
	for i := range want {
		if retries[i] != want[i] {
			t.Fatalf("retry %d delay = %v, want %v", i, retries[i], want[i])
		}
	}
	got := clk.Slept()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("slept %v, want %v", got, want)
	}
}

func TestRetrierExhaustionReturnsLastError(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	r := &Retrier{MaxAttempts: 3, Clock: clk, Rand: fixedRand(0.5)}
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return Transient(errors.New("still flaky"))
	})
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if err == nil || err.Error() != "still flaky" {
		t.Fatalf("err = %v, want still flaky (verbatim message)", err)
	}
	if !IsTransient(err) {
		t.Fatal("exhausted error must still classify as transient")
	}
}

func TestRetrierBackoffCapsAtMaxDelay(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	r := &Retrier{
		MaxAttempts: 8,
		BaseDelay:   time.Second,
		MaxDelay:    2 * time.Second,
		Clock:       clk,
		Rand:        fixedRand(1 - 1e-9), // essentially the ceiling
	}
	_ = r.Do(context.Background(), func(context.Context) error {
		return Transient(errors.New("down"))
	})
	for i, d := range clk.Slept() {
		if d > 2*time.Second {
			t.Fatalf("sleep %d = %v exceeds MaxDelay", i, d)
		}
	}
	if n := len(clk.Slept()); n != 7 {
		t.Fatalf("slept %d times, want 7", n)
	}
}

func TestRetrierRetryAfterOverridesBackoff(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	r := &Retrier{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Second,
		Clock: clk, Rand: fixedRand(0.5)}
	calls := 0
	_ = r.Do(context.Background(), func(context.Context) error {
		calls++
		return TransientAfter(errors.New("busy"), 3*time.Second)
	})
	got := clk.Slept()
	if len(got) != 1 || got[0] != 3*time.Second {
		t.Fatalf("slept %v, want [3s] (Retry-After hint must override backoff)", got)
	}
}

func TestRetrierRetryAfterClampedToMaxDelay(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	r := &Retrier{MaxAttempts: 2, MaxDelay: 2 * time.Second, Clock: clk, Rand: fixedRand(0.5)}
	_ = r.Do(context.Background(), func(context.Context) error {
		return TransientAfter(errors.New("busy"), time.Hour)
	})
	got := clk.Slept()
	if len(got) != 1 || got[0] != 2*time.Second {
		t.Fatalf("slept %v, want [2s] (hostile Retry-After must clamp)", got)
	}
}

func TestRetrierContextCancelStopsRetries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &Retrier{MaxAttempts: 10, BaseDelay: time.Millisecond, Rand: fixedRand(0.5)}
	calls := 0
	err := r.Do(ctx, func(context.Context) error {
		calls++
		cancel()
		return Transient(errors.New("flaky"))
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (dead context must stop retries)", calls)
	}
	if !IsTransient(err) {
		t.Fatalf("err = %v, want the fn error, not ctx.Err()", err)
	}
}

func TestNilRetrierRunsOnce(t *testing.T) {
	var r *Retrier
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		return Transient(errors.New("flaky"))
	})
	if calls != 1 || err == nil {
		t.Fatalf("calls = %d err = %v, want 1 attempt with error", calls, err)
	}
}

func TestTransientMessageVerbatim(t *testing.T) {
	base := errors.New("GET http://x: status 503")
	te := Transient(base)
	if te.Error() != base.Error() {
		t.Fatalf("Transient altered the message: %q", te.Error())
	}
	if !errors.Is(te, base) {
		t.Fatal("Transient must wrap, not replace")
	}
	if Transient(nil) != nil || TransientAfter(nil, time.Second) != nil {
		t.Fatal("Transient(nil) must be nil")
	}
	if IsTransient(base) {
		t.Fatal("unmarked error must not be transient")
	}
	if _, ok := RetryAfterHint(Transient(base)); ok {
		t.Fatal("plain Transient must carry no Retry-After hint")
	}
	if d, ok := RetryAfterHint(TransientAfter(base, 7*time.Second)); !ok || d != 7*time.Second {
		t.Fatalf("hint = %v %v, want 7s true", d, ok)
	}
}
