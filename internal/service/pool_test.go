package service

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilient"
)

func TestPoolRunsTasks(t *testing.T) {
	p := NewPool(4, 8)
	defer p.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.DoWait(context.Background(), -1, func() { n.Add(1) }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers, 0)
	defer p.Close()
	// Tasks hold their worker until `workers` of them run at once, so the
	// pool is driven to its bound; the deadline turns a pool that never
	// reaches it into an error instead of a hung test.
	full := make(chan struct{})
	var fill sync.Once
	deadline, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.DoWait(context.Background(), -1, func() {
				c := cur.Add(1)
				for {
					pk := peak.Load()
					if c <= pk || peak.CompareAndSwap(pk, c) {
						break
					}
				}
				if c == workers {
					fill.Do(func() { close(full) })
				}
				select {
				case <-full:
				case <-deadline.Done():
				}
				cur.Add(-1)
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", got, workers)
	}
	if got := peak.Load(); got < workers {
		t.Fatalf("peak concurrency %d never reached %d workers", got, workers)
	}
}

func TestPoolContextCancel(t *testing.T) {
	p := NewPool(1, 0)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_ = p.DoWait(context.Background(), -1, func() { close(started); <-block })
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The single worker is occupied and the queue is unbuffered, so this
	// submit must fail with the context error instead of running.
	if err := p.DoWait(ctx, -1, func() { t.Error("cancelled task ran") }); err == nil {
		t.Fatal("expected context error")
	}
	close(block)
}

func TestPoolCloseRejectsAndDrains(t *testing.T) {
	p := NewPool(2, 4)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.DoWait(context.Background(), -1, func() { n.Add(1) })
		}()
	}
	wg.Wait()
	p.Close()
	if n.Load() != 10 {
		t.Fatalf("drained %d tasks, want 10", n.Load())
	}
	if err := p.DoWait(context.Background(), -1, func() {}); err == nil {
		t.Fatal("Do after Close should fail")
	}
	p.Close() // idempotent
}

// doneProbe is a context that reports, by closing asked, the first time
// a submitter reads its Done channel. DoWait reads it only once the
// admission fast path found every slot taken.
type doneProbe struct {
	context.Context
	asked chan struct{}
	once  sync.Once
}

func newDoneProbe(ctx context.Context) *doneProbe {
	return &doneProbe{Context: ctx, asked: make(chan struct{})}
}

func (c *doneProbe) Done() <-chan struct{} {
	c.once.Do(func() { close(c.asked) })
	return c.Context.Done()
}

// admitQueued fills the one free queue slot of a pool whose workers are
// all busy with a task running fn, and returns once that task is
// admitted. Two submitters race for the slot; the loser reaches the
// admission wait, which proves the slot is taken, and is cancelled.
func admitQueued(t *testing.T, p *Pool, fn func()) {
	t.Helper()
	type submitter struct {
		ctx    *doneProbe
		cancel context.CancelFunc
		err    chan error
	}
	var subs [2]submitter
	for i := range subs {
		ctx, cancel := context.WithCancel(context.Background())
		subs[i] = submitter{newDoneProbe(ctx), cancel, make(chan error, 1)}
		go func(s submitter) { s.err <- p.DoWait(s.ctx, -1, fn) }(subs[i])
	}
	loser := subs[0]
	select {
	case <-subs[0].ctx.asked:
	case <-subs[1].ctx.asked:
		loser = subs[1]
	}
	loser.cancel()
	if err := <-loser.err; !errors.Is(err, context.Canceled) {
		t.Fatalf("losing submitter = %v, want context.Canceled", err)
	}
}

// saturatePool occupies every worker and queue slot of a 1-worker,
// 1-slot pool; the returned release unblocks it.
func saturatePool(t *testing.T) (*Pool, func()) {
	t.Helper()
	p := NewPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	go func() { _ = p.DoWait(context.Background(), -1, func() { close(started); <-block }) }()
	<-started
	queued := make(chan struct{})
	admitQueued(t, p, func() { close(queued) })
	release := func() { close(block); <-queued; p.Close() }
	return p, release
}

func TestPoolTryDoShedsWhenSaturated(t *testing.T) {
	p, release := saturatePool(t)
	defer release()
	if err := p.DoWait(context.Background(), 0, func() { t.Error("shed task ran") }); !errors.Is(err, ErrSaturated) {
		t.Fatalf("DoWait(0) on saturated pool = %v, want ErrSaturated", err)
	}
}

func TestPoolDoWaitShedsAfterDeadline(t *testing.T) {
	p, release := saturatePool(t)
	defer release()
	start := time.Now()
	err := p.DoWait(context.Background(), 10*time.Millisecond, func() { t.Error("shed task ran") })
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("DoWait = %v, want ErrSaturated", err)
	}
	if waited := time.Since(start); waited < 10*time.Millisecond {
		t.Fatalf("DoWait returned after %v, want >= 10ms of bounded waiting", waited)
	}
}

func TestPoolDoWaitAdmitsWhenSlotFrees(t *testing.T) {
	p, release := saturatePool(t)
	// Free the pool once this submission is waiting for admission.
	ctx := newDoneProbe(context.Background())
	go func() { <-ctx.asked; release() }()
	ran := make(chan struct{})
	if err := p.DoWait(ctx, time.Second, func() { close(ran) }); err != nil {
		t.Fatalf("DoWait = %v, want admission once the pool drained", err)
	}
	<-ran
}

func TestPoolRecoversTaskPanic(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	var hooked atomic.Int64
	p.OnPanic = func(pe *resilient.PanicError) { hooked.Add(1) }

	err := p.DoWait(context.Background(), -1, func() { panic("rule exploded") })
	var pe *resilient.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Do = %v, want *resilient.PanicError", err)
	}
	if !strings.Contains(pe.Error(), "rule exploded") || len(pe.Stack) == 0 {
		t.Fatalf("panic error %q (stack %d bytes), want message and stack", pe.Error(), len(pe.Stack))
	}
	if hooked.Load() != 1 {
		t.Fatalf("OnPanic fired %d times, want 1", hooked.Load())
	}
	// The worker survived: the next task runs normally.
	if err := p.DoWait(context.Background(), -1, func() {}); err != nil {
		t.Fatalf("task after panic = %v, want success", err)
	}
}

// TestPoolSlotAccountingUnderMixedLoad drives the pool from many
// goroutines with a seeded mix of panicking tasks, cancelled contexts
// and every admission mode. Concurrency stays within the worker and
// admission bounds, exactly the admitted tasks run, and afterwards
// every slot is free again.
func TestPoolSlotAccountingUnderMixedLoad(t *testing.T) {
	const workers, queue, callers, calls = 3, 2, 32, 40
	p := NewPool(workers, queue)
	defer p.Close()
	// A leaked slot turns the unbounded waits into deadline errors
	// instead of a hung test.
	live, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	cancelled, cancel := context.WithCancel(live)
	cancel()

	raise := func(peak *atomic.Int64, v int64) {
		for pk := peak.Load(); v > pk && !peak.CompareAndSwap(pk, v); pk = peak.Load() {
		}
	}
	var running, peakRunning, peakAdmitted, ran, returned atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				ctx := live
				if rng.Intn(4) == 0 {
					ctx = cancelled
				}
				maxWait := []time.Duration{-1, 0, 200 * time.Microsecond}[rng.Intn(3)]
				boom := rng.Intn(5) == 0
				hold := rng.Intn(8) // yields while holding the slot
				err := p.DoWait(ctx, maxWait, func() {
					ran.Add(1)
					raise(&peakRunning, running.Add(1))
					raise(&peakAdmitted, p.InFlight()+int64(p.QueueDepth()))
					for range hold {
						runtime.Gosched()
					}
					running.Add(-1)
					if boom {
						panic("seeded panic")
					}
				})
				var pe *resilient.PanicError
				switch {
				case err == nil && !boom, errors.As(err, &pe) && boom:
					returned.Add(1)
				case errors.Is(err, ErrSaturated) && maxWait >= 0,
					errors.Is(err, context.Canceled) && ctx == cancelled:
				default:
					t.Errorf("DoWait(boom=%v, maxWait=%v) = %v", boom, maxWait, err)
				}
			}
		}(rand.New(rand.NewSource(int64(g) + 1)))
	}
	wg.Wait()

	if got := peakRunning.Load(); got > workers {
		t.Errorf("peak running %d exceeds %d workers", got, workers)
	}
	if got := peakAdmitted.Load(); got > workers+queue {
		t.Errorf("peak admitted %d exceeds %d slots", got, workers+queue)
	}
	if ran.Load() != returned.Load() {
		t.Errorf("%d tasks ran but %d DoWait calls reported running one", ran.Load(), returned.Load())
	}
	if p.InFlight() != 0 || p.QueueDepth() != 0 {
		t.Fatalf("drained pool reports inFlight=%d queueDepth=%d, want 0/0", p.InFlight(), p.QueueDepth())
	}
	if err := p.DoWait(context.Background(), 0, func() {}); err != nil {
		t.Fatalf("DoWait(0) on the drained pool = %v, want admission", err)
	}
}

// TestPoolCloseWaitsForAdmittedTasks: Close returns only after every
// admitted task — the running one and the one queued behind it — has
// finished.
func TestPoolCloseWaitsForAdmittedTasks(t *testing.T) {
	p := NewPool(1, 1)
	started, release := make(chan struct{}), make(chan struct{})
	go func() { _ = p.DoWait(context.Background(), -1, func() { close(started); <-release }) }()
	<-started
	var queuedRan atomic.Bool
	admitQueued(t, p, func() { queuedRan.Store(true) })

	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while an admitted task was blocked")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the blocked task was released")
	}
	if !queuedRan.Load() {
		t.Fatal("Close returned before the queued task ran")
	}
}

// labelledTask blocks until release; its frame marks the task's
// goroutine in a goroutine profile.
//
//go:noinline
func labelledTask(started, release chan struct{}) {
	close(started)
	<-release
}

// TestPoolTaskRunsUnderSubmitterLabels: a task submitted under a pprof
// "route" label runs under that label, so CPU profiles attribute
// extraction samples to the route that caused them.
func TestPoolTaskRunsUnderSubmitterLabels(t *testing.T) {
	p := NewPool(1, 0)
	defer p.Close()
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go pprof.Do(context.Background(), pprof.Labels("route", "x"), func(ctx context.Context) {
		done <- p.DoWait(ctx, -1, func() { labelledTask(started, release) })
	})
	<-started
	var buf bytes.Buffer
	err := pprof.Lookup("goroutine").WriteTo(&buf, 1)
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("DoWait = %v", err)
	}
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(rec, "service.labelledTask") {
			if !strings.Contains(rec, `# labels: {"route":"x"}`) {
				t.Fatalf("task goroutine runs without the route label:\n%s", rec)
			}
			return
		}
	}
	t.Fatalf("no goroutine running labelledTask in the profile:\n%s", buf.String())
}
