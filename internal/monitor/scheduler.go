package monitor

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/resilient"
)

// Recrawl outcomes, reported per firing through Config.OnOutcome and
// exported as recrawl_total{outcome}.
const (
	OutcomeClean    = "clean"    // recrawl succeeded, no repair needed
	OutcomeRepaired = "repaired" // recrawl tripped the repair path and promoted
	OutcomeFailed   = "failed"   // crawl or extraction failed; interval kept
)

// Defaults for Config zero values.
const (
	DefaultMinInterval = time.Minute
	DefaultMaxInterval = 7 * 24 * time.Hour
	DefaultBudget      = 2
	DefaultJitterFrac  = 0.1
	defaultIdlePoll    = time.Minute
	defaultMinRunDelay = 10 * time.Millisecond
)

// perHost caps concurrent recrawls per origin host.
const perHost = 1

// RecrawlResult is what a RecrawlFunc reports back: the extracted
// records keyed by page URI, and whether this pass went through the
// drift/repair path (either forces the schedule back to the minimum
// interval, because value-identical post-repair records must not read
// as "stable site").
type RecrawlResult struct {
	Records  map[string]Record
	Repaired bool
	Drifting bool
}

// RecrawlFunc performs one recrawl pass — crawl, route, extract, and
// repair if the lifecycle monitor demands it — for the given schedule.
// The scheduler owns everything else: cadence, diffing, the feed, and
// durability.
type RecrawlFunc func(ctx context.Context, sc ScheduleState) (*RecrawlResult, error)

// Config configures a Scheduler. Zero values take the documented
// defaults.
type Config struct {
	MinInterval time.Duration // alarm snap-back floor (default 1m)
	MaxInterval time.Duration // stable-site decay ceiling (default 7d)
	Budget      int           // max concurrent recrawls per tick (default 2)
	// JitterFrac is the firing jitter as a fraction of the interval
	// (0 = DefaultJitterFrac; negative = no jitter). For exact fire
	// times, inject a Rand that returns 0.
	JitterFrac float64

	Clock resilient.Clock // time source; nil = wall clock
	Rand  func() float64  // jitter source in [0,1); nil = math/rand
	Log   *slog.Logger    // nil = slog.Default

	Recrawl   RecrawlFunc          // required to Tick; supplied by the service
	OnOutcome func(outcome string) // metrics hook, called per firing; nil = none
}

// ScheduleState is the complete durable state of one schedule. It is
// the WAL/snapshot payload and the GET /schedules wire form, so a
// restarted daemon — and the crash e2e — can compare it byte for byte.
type ScheduleState struct {
	Repo     string        `json:"repo"`
	URL      string        `json:"url"`
	Interval time.Duration `json:"interval"` // nanoseconds
	NextFire time.Time     `json:"nextFire"`
	Paused   bool          `json:"paused,omitempty"`
	// DriftRate is the EWMA of per-recrawl change ratios in [0,1];
	// 1 after an alarm or repair.
	DriftRate   float64 `json:"driftRate"`
	Recrawls    int64   `json:"recrawls"`
	LastOutcome string  `json:"lastOutcome,omitempty"`
	LastError   string  `json:"lastError,omitempty"`
	// Seen is the last-seen record set: page URI → record fingerprint.
	Seen map[string]string `json:"seen,omitempty"`
}

func (sc *ScheduleState) clone() ScheduleState {
	out := *sc
	if sc.Seen != nil {
		out.Seen = make(map[string]string, len(sc.Seen))
		for k, v := range sc.Seen {
			out.Seen[k] = v
		}
	}
	return out
}

// RecrawlRecord is the WAL payload journaled after every completed
// firing: the schedule's post-recrawl state, the change events the
// firing emitted (with their feed sequence numbers), and the feed's
// next sequence number so replay never reissues a published seq.
type RecrawlRecord struct {
	Schedule ScheduleState `json:"schedule"`
	Changes  []Change      `json:"changes,omitempty"`
	FeedSeq  uint64        `json:"feedSeq"`
}

// Journal receives durable events as they happen; the service points
// these at its WAL. Hooks are called synchronously under the
// scheduler's lock, so WAL order matches feed sequence order.
type Journal struct {
	Schedule func(*ScheduleState) // schedule created/updated (register, pause, resume)
	Remove   func(repo string)    // schedule removed
	Recrawl  func(*RecrawlRecord) // firing completed
}

// State is the scheduler's durable form inside a snapshot.
type State struct {
	Schedules []ScheduleState `json:"schedules,omitempty"`
	Feed      FeedState       `json:"feed"`
}

type schedule struct {
	state   ScheduleState
	running bool
}

// Scheduler owns the recrawl cadence for every registered repo. All
// time flows through its Clock, so under resilient.FakeClock a test
// drives Tick directly and observes a fully deterministic firing
// sequence.
type Scheduler struct {
	cfg   Config
	clock resilient.Clock
	rand  func() float64
	log   *slog.Logger
	feed  *Feed
	hosts *resilient.KeyedLimiter

	mu      sync.Mutex
	entries map[string]*schedule
	journal Journal

	// wake interrupts Run's current sleep when a schedule becomes due
	// earlier than the sleep would end (register, resume, alarm).
	wakeMu sync.Mutex
	wake   context.CancelFunc
}

// wakeRun interrupts a sleeping Run loop so it recomputes its delay.
// Safe to call while holding s.mu: only wakeMu is taken here.
func (s *Scheduler) wakeRun() {
	s.wakeMu.Lock()
	if s.wake != nil {
		s.wake()
	}
	s.wakeMu.Unlock()
}

// New creates a Scheduler; nil/zero Config fields take defaults.
func New(cfg Config) *Scheduler {
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = DefaultMinInterval
	}
	if cfg.MaxInterval < cfg.MinInterval {
		cfg.MaxInterval = DefaultMaxInterval
	}
	if cfg.MaxInterval < cfg.MinInterval {
		cfg.MaxInterval = cfg.MinInterval
	}
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultBudget
	}
	if cfg.JitterFrac == 0 {
		cfg.JitterFrac = DefaultJitterFrac
	}
	clock := cfg.Clock
	if clock == nil {
		clock = resilient.RealClock()
	}
	rnd := cfg.Rand
	if rnd == nil {
		rnd = rand.Float64
	}
	logger := cfg.Log
	if logger == nil {
		logger = slog.Default()
	}
	return &Scheduler{
		cfg:     cfg,
		clock:   clock,
		rand:    rnd,
		log:     logger,
		feed:    NewFeed(DefaultFeedCapacity),
		hosts:   resilient.NewKeyedLimiter(perHost),
		entries: map[string]*schedule{},
	}
}

// SetJournal installs the durability hooks. Call before Run/Tick.
func (s *Scheduler) SetJournal(j Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// Feed returns the change feed.
func (s *Scheduler) Feed() *Feed { return s.feed }

// Register creates (or re-arms) a schedule for repo against url. A
// non-positive interval takes the configured minimum; NextFire is now,
// so the first tick performs the baseline crawl. Re-registering keeps
// the last-seen record set so the feed does not replay "new" events.
func (s *Scheduler) Register(repo, rawURL string, interval time.Duration) (ScheduleState, error) {
	if repo == "" {
		return ScheduleState{}, fmt.Errorf("monitor: empty repo")
	}
	u, err := url.Parse(rawURL)
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return ScheduleState{}, fmt.Errorf("monitor: invalid url %q", rawURL)
	}
	if interval <= 0 {
		interval = s.cfg.MinInterval
	}
	interval = clampDur(interval, s.cfg.MinInterval, s.cfg.MaxInterval)

	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[repo]
	if !ok {
		e = &schedule{state: ScheduleState{Repo: repo}}
		s.entries[repo] = e
	}
	e.state.URL = rawURL
	e.state.Interval = interval
	e.state.NextFire = s.clock.Now()
	e.state.Paused = false
	st := e.state.clone()
	if s.journal.Schedule != nil {
		s.journal.Schedule(&st)
	}
	s.wakeRun()
	return st, nil
}

// Pause stops a schedule from firing; its state is preserved.
func (s *Scheduler) Pause(repo string) error { return s.setPaused(repo, true) }

// Resume re-arms a paused schedule; it fires at the next tick.
func (s *Scheduler) Resume(repo string) error { return s.setPaused(repo, false) }

func (s *Scheduler) setPaused(repo string, paused bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[repo]
	if !ok {
		return fmt.Errorf("monitor: no schedule for %q", repo)
	}
	if e.state.Paused == paused {
		return nil
	}
	e.state.Paused = paused
	if !paused {
		e.state.NextFire = s.clock.Now()
	}
	st := e.state.clone()
	if s.journal.Schedule != nil {
		s.journal.Schedule(&st)
	}
	if !paused {
		s.wakeRun()
	}
	return nil
}

// Remove deletes a schedule and journals the removal.
func (s *Scheduler) Remove(repo string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[repo]; !ok {
		return fmt.Errorf("monitor: no schedule for %q", repo)
	}
	delete(s.entries, repo)
	if s.journal.Remove != nil {
		s.journal.Remove(repo)
	}
	return nil
}

// Alarm snaps a schedule back to the minimum interval and makes it due
// immediately — the lifecycle drift alarm's hook into the cadence.
func (s *Scheduler) Alarm(repo string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[repo]
	if !ok {
		return
	}
	e.state.DriftRate = 1
	e.state.Interval = s.cfg.MinInterval
	e.state.NextFire = s.clock.Now()
	st := e.state.clone()
	if s.journal.Schedule != nil {
		s.journal.Schedule(&st)
	}
	s.wakeRun()
	s.log.Info("monitor.alarm", "repo", repo)
}

// Get returns a schedule's state.
func (s *Scheduler) Get(repo string) (ScheduleState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[repo]
	if !ok {
		return ScheduleState{}, false
	}
	return e.state.clone(), true
}

// List returns every schedule's state, sorted by repo name.
func (s *Scheduler) List() []ScheduleState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ScheduleState, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e.state.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Repo < out[j].Repo })
	return out
}

// NextDue returns the earliest NextFire among unpaused schedules.
func (s *Scheduler) NextDue() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var (
		best  time.Time
		found bool
	)
	for _, e := range s.entries {
		if e.state.Paused || e.running {
			continue
		}
		if !found || e.state.NextFire.Before(best) {
			best = e.state.NextFire
			found = true
		}
	}
	return best, found
}

// Tick fires every due, unpaused schedule once and waits for the
// firings to complete. Concurrency is bounded by the budget (the
// spawner blocks on the semaphore, so with Budget 1 the due set runs
// strictly in (NextFire, Repo) order) and by the per-host limiter.
// It returns the number of schedules fired.
func (s *Scheduler) Tick(ctx context.Context) int {
	now := s.clock.Now()

	s.mu.Lock()
	var due []*schedule
	for _, e := range s.entries {
		if e.state.Paused || e.running {
			continue
		}
		if !e.state.NextFire.After(now) {
			e.running = true
			due = append(due, e)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		a, b := due[i].state, due[j].state
		if !a.NextFire.Equal(b.NextFire) {
			return a.NextFire.Before(b.NextFire)
		}
		return a.Repo < b.Repo
	})
	s.mu.Unlock()

	if len(due) == 0 {
		return 0
	}

	sem := make(chan struct{}, s.cfg.Budget)
	var wg sync.WaitGroup
	for _, e := range due {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			s.mu.Lock()
			e.running = false
			s.mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(e *schedule) {
			defer wg.Done()
			defer func() { <-sem }()
			s.recrawlOne(ctx, e)
		}(e)
	}
	wg.Wait()
	return len(due)
}

// Run drives Tick on the clock until ctx is done. A sleeping loop is
// interrupted early when a schedule becomes due sooner — registering,
// resuming, or alarming a schedule never waits out the idle poll.
// Tests on a FakeClock call Tick directly instead.
func (s *Scheduler) Run(ctx context.Context) error {
	for {
		delay := defaultIdlePoll
		if next, ok := s.NextDue(); ok {
			delay = next.Sub(s.clock.Now())
			if delay < defaultMinRunDelay {
				delay = defaultMinRunDelay
			}
			if delay > defaultIdlePoll {
				delay = defaultIdlePoll
			}
		}
		sctx, cancel := context.WithCancel(ctx)
		s.wakeMu.Lock()
		s.wake = cancel
		s.wakeMu.Unlock()
		err := s.clock.Sleep(sctx, delay)
		s.wakeMu.Lock()
		s.wake = nil
		s.wakeMu.Unlock()
		cancel()
		if err != nil && ctx.Err() != nil {
			return err
		}
		s.Tick(ctx)
	}
}

// recrawlOne runs a single schedule's firing end to end: the recrawl
// itself outside the lock (bounded per host), then diff, adapt,
// publish and journal in one critical section so WAL order matches
// feed order.
func (s *Scheduler) recrawlOne(ctx context.Context, e *schedule) {
	s.mu.Lock()
	st := e.state.clone()
	s.mu.Unlock()

	var (
		res *RecrawlResult
		err error
	)
	if s.cfg.Recrawl == nil {
		err = fmt.Errorf("monitor: no RecrawlFunc configured")
	} else {
		host := st.URL
		if u, perr := url.Parse(st.URL); perr == nil && u.Host != "" {
			host = u.Host
		}
		release, lerr := s.hosts.Acquire(ctx, host)
		if lerr != nil {
			err = lerr
		} else {
			res, err = s.cfg.Recrawl(ctx, st)
			release()
		}
	}

	now := s.clock.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	e.running = false
	e.state.Recrawls++

	var rec *RecrawlRecord
	if err != nil {
		e.state.LastOutcome = OutcomeFailed
		e.state.LastError = err.Error()
		// Keep the interval: a fetch failure says nothing about drift.
		e.state.NextFire = now.Add(e.state.Interval + Jitter(e.state.Interval, s.cfg.JitterFrac, s.rand()))
		rec = &RecrawlRecord{Schedule: e.state.clone(), FeedSeq: s.feed.NextSeq()}
		s.log.Warn("monitor.recrawl.failed", "repo", e.state.Repo, "err", err)
	} else {
		changes := diffRecords(e.state.Repo, now, e.state.Seen, res.Records)
		// Baseline crawl (no prior record set) contributes no drift
		// signal — everything is "new" by construction.
		rate := 0.0
		if len(e.state.Seen) > 0 {
			union := len(e.state.Seen)
			for _, c := range changes {
				if c.Kind == KindNew {
					union++
				}
			}
			if union > 0 {
				rate = float64(len(changes)) / float64(union)
			}
		}
		outcome := OutcomeClean
		if res.Repaired || res.Drifting {
			// A repaired (or still-drifting) site is volatile by
			// definition, even when post-repair values are identical.
			e.state.DriftRate = 1
			if res.Repaired {
				outcome = OutcomeRepaired
			}
		} else {
			e.state.DriftRate = 0.5*rate + 0.5*e.state.DriftRate
		}
		e.state.Interval = AdaptInterval(e.state.Interval, s.cfg.MinInterval, s.cfg.MaxInterval, e.state.DriftRate)
		e.state.NextFire = now.Add(e.state.Interval + Jitter(e.state.Interval, s.cfg.JitterFrac, s.rand()))
		e.state.LastOutcome = outcome
		e.state.LastError = ""
		seen := make(map[string]string, len(res.Records))
		for uri, r := range res.Records {
			seen[uri] = r.Fingerprint
		}
		e.state.Seen = seen

		stamped := s.feed.append(changes)
		var nNew, nChanged, nVanished int
		for _, c := range stamped {
			switch c.Kind {
			case KindNew:
				nNew++
			case KindChanged:
				nChanged++
			case KindVanished:
				nVanished++
			}
		}
		rec = &RecrawlRecord{Schedule: e.state.clone(), Changes: stamped, FeedSeq: s.feed.NextSeq()}
		s.log.Info("monitor.recrawl",
			"repo", e.state.Repo, "outcome", outcome,
			"new", nNew, "changed", nChanged, "vanished", nVanished,
			"drift_rate", e.state.DriftRate, "next_interval", e.state.Interval)
	}

	if s.journal.Recrawl != nil {
		s.journal.Recrawl(rec)
	}
	if s.cfg.OnOutcome != nil {
		s.cfg.OnOutcome(e.state.LastOutcome)
	}
}

// ExportState captures the scheduler for a snapshot.
func (s *Scheduler) ExportState() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &State{Feed: s.feed.exportState()}
	for _, e := range s.entries {
		st.Schedules = append(st.Schedules, e.state.clone())
	}
	sort.Slice(st.Schedules, func(i, j int) bool { return st.Schedules[i].Repo < st.Schedules[j].Repo })
	return st
}

// RestoreState replaces the scheduler's contents from a snapshot.
func (s *Scheduler) RestoreState(st *State) {
	if st == nil {
		return
	}
	s.mu.Lock()
	s.entries = make(map[string]*schedule, len(st.Schedules))
	for i := range st.Schedules {
		sc := st.Schedules[i].clone()
		s.entries[sc.Repo] = &schedule{state: sc}
	}
	s.mu.Unlock()
	s.feed.restoreState(st.Feed)
}

// ApplyScheduleRecord applies a journaled schedule create/update
// during WAL replay.
func (s *Scheduler) ApplyScheduleRecord(st *ScheduleState) {
	if st == nil || st.Repo == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := st.clone()
	s.entries[sc.Repo] = &schedule{state: sc}
}

// ApplyScheduleRemove applies a journaled schedule removal during WAL
// replay.
func (s *Scheduler) ApplyScheduleRemove(repo string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, repo)
}

// ApplyRecrawlRecord applies a journaled firing during WAL replay:
// the schedule's post-recrawl state, plus the change events at their
// original sequence numbers (skipping any the snapshot already
// carried, so a restart never re-emits a published change).
func (s *Scheduler) ApplyRecrawlRecord(rec *RecrawlRecord) {
	if rec == nil || rec.Schedule.Repo == "" {
		return
	}
	s.mu.Lock()
	sc := rec.Schedule.clone()
	s.entries[sc.Repo] = &schedule{state: sc}
	s.mu.Unlock()
	s.feed.applyReplay(rec.Changes, rec.FeedSeq)
}

// AdaptInterval maps the previous interval and the current drift rate
// to the next interval. Rate 0 doubles toward max (geometric decay of
// attention); rate 1 snaps to min; in between the growth is scaled by
// (1-rate). The result is always clamped to [min, max] and is
// monotone non-increasing in rate.
func AdaptInterval(prev, min, max time.Duration, rate float64) time.Duration {
	if min <= 0 {
		min = DefaultMinInterval
	}
	if max < min {
		max = min
	}
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	prev = clampDur(prev, min, max)
	grown := prev * 2
	if grown < prev || grown > max { // overflow or past ceiling
		grown = max
	}
	next := min + time.Duration((1-rate)*float64(grown-min))
	return clampDur(next, min, max)
}

// Jitter returns the additive firing jitter for an interval: r (in
// [0,1)) scaled by frac of the interval, so 0 <= Jitter < frac*interval.
func Jitter(interval time.Duration, frac, r float64) time.Duration {
	if interval <= 0 || frac <= 0 {
		return 0
	}
	if r < 0 {
		r = 0
	}
	if r >= 1 {
		r = 0
	}
	return time.Duration(frac * r * float64(interval))
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}
