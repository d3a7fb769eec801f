package service

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/resilient"
)

var (
	// ErrSaturated reports that no admission slot freed within the wait:
	// the caller should shed the request (503 + Retry-After).
	ErrSaturated  = errors.New("service: pool saturated")
	errPoolClosed = errors.New("service: pool closed")
)

// Pool is an admission gate that caps extraction concurrency however
// many requests or pipeline workers submit; the queue gives bursts
// somewhere to wait instead of failing. admit (workers+queue slots)
// decides whether a task gets in, run (workers slots) how many admitted
// tasks execute at once. A task runs on the submitter's goroutine, so it
// keeps the submitter's pprof labels and costs no hand-off; a panic in
// it comes back to the submitter as a *resilient.PanicError.
type Pool struct {
	admit, run chan struct{}

	// OnPanic, when non-nil, observes each recovered panic; set before use.
	OnPanic func(pe *resilient.PanicError)

	// mu orders every DoWait's wg.Add before Close's wg.Wait, so Close
	// waits out each submission that passed the closed check.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

// NewPool returns a pool that runs at most `workers` tasks at once and
// admits `queue` more to wait for a turn (0: submits wait for a worker).
func NewPool(workers, queue int) *Pool {
	workers, queue = max(workers, 1), max(queue, 0)
	return &Pool{admit: make(chan struct{}, workers+queue), run: make(chan struct{}, workers)}
}

// Workers reports how many tasks may run at once: the natural
// concurrency for callers, like the ingestion pipeline, that feed it.
func (p *Pool) Workers() int { return cap(p.run) }

// QueueDepth reports the tasks admitted but not yet running, clamped
// because the two semaphores are not read atomically.
func (p *Pool) QueueDepth() int {
	return min(max(len(p.admit)-len(p.run), 0), p.QueueCapacity())
}

// QueueCapacity reports the queue's slot count.
func (p *Pool) QueueCapacity() int { return cap(p.admit) - cap(p.run) }

// InFlight reports the tasks currently executing.
func (p *Pool) InFlight() int64 { return int64(len(p.run)) }

// DoWait runs fn on the calling goroutine once the pool admits it and a
// worker slot is free. Admission waits up to maxWait for a slot, then
// sheds with ErrSaturated: maxWait < 0 waits until ctx ends, 0 never
// waits. ctx only bounds admission — an admitted task always runs. A
// panic in fn surfaces as a *resilient.PanicError.
func (p *Pool) DoWait(ctx context.Context, maxWait time.Duration, fn func()) error {
	return p.doWait(ctx, maxWait, 0, fn)
}

// doWait is DoWait with bound, when > 0, ending the admission wait as a
// ctx deadline that far off would (with context.DeadlineExceeded). Its
// timer starts only once fn has to wait: a task admitted at once
// allocates no context or timer.
func (p *Pool) doWait(ctx context.Context, maxWait, bound time.Duration, fn func()) (err error) {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return errPoolClosed
	}
	p.wg.Add(1)
	p.mu.RUnlock()
	defer p.wg.Done()
	// Fast path first: the happy case costs one channel op and no timer.
	select {
	case p.admit <- struct{}{}:
	default:
		if err := p.wait(ctx, maxWait, bound); err != nil {
			return err
		}
	}
	defer func() { <-p.admit }()
	p.run <- struct{}{}
	defer func() {
		<-p.run
		if v := recover(); v != nil {
			pe := &resilient.PanicError{Val: v, Stack: debug.Stack()}
			if p.OnPanic != nil {
				p.OnPanic(pe)
			}
			err = pe
		}
	}()
	fn()
	return nil
}

// wait blocks for an admission slot until ctx ends, bound (> 0) passes
// or maxWait (> 0) passes.
func (p *Pool) wait(ctx context.Context, maxWait, bound time.Duration) error {
	if maxWait == 0 {
		return ErrSaturated
	}
	if bound > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, bound)
		defer cancel()
	}
	var deadline <-chan time.Time
	if maxWait > 0 {
		timer := time.NewTimer(maxWait)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case p.admit <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-deadline:
		return ErrSaturated
	}
}

// Close stops admitting tasks and waits for every admitted task to
// finish. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
}
