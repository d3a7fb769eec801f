package induct

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/resilient"
	"repro/internal/rule"
)

// JobState is the lifecycle of one induction job.
type JobState string

// Job states. Terminal states are staged (awaiting promote), promoted,
// failed and cancelled.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobStaged    JobState = "staged"
	JobPromoted  JobState = "promoted"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Job is one background wrapper-induction run over a bucket of unrouted
// pages.
type Job struct {
	ID     string   `json:"id"`
	Bucket string   `json:"bucket"`
	State  JobState `json:"state"`
	// Cluster is the repository name the job derives from the bucket's
	// URL pattern.
	Cluster string `json:"cluster,omitempty"`
	// Pages is the bucket size at planning time; Sample is the working
	// sample the builder actually used.
	Pages  int `json:"pages"`
	Sample int `json:"sample,omitempty"`
	// Components maps component name → build outcome ("recorded(n)",
	// "not-converged", "error: ...").
	Components map[string]string `json:"components,omitempty"`
	// Version is the staged registry version once State is staged or
	// promoted.
	Version int       `json:"version,omitempty"`
	Error   string    `json:"error,omitempty"`
	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`
	// Started is when a worker picked the job up; Finished is when the
	// run reached staged or a terminal state (promotion later only
	// bumps Updated). Zero (omitted) until the transition happens.
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Trace is the trace ID of the request whose captured page most
	// recently fed the job's bucket — the thread from ingest traffic to
	// the induction run it triggered.
	Trace string `json:"trace,omitempty"`

	cancel    bool
	promoting bool
}

func (j *Job) clone() *Job {
	c := *j
	if j.Components != nil {
		c.Components = make(map[string]string, len(j.Components))
		for k, v := range j.Components {
			c.Components[k] = v
		}
	}
	return &c
}

// Stager publishes an induced repository without activating it — the
// extractd registry's Stage, or a directory writer in batch mode.
type Stager interface {
	Stage(name string, repo *rule.Repository) (version int, err error)
}

// StagerFunc adapts a function to Stager.
type StagerFunc func(name string, repo *rule.Repository) (int, error)

// Stage implements Stager.
func (f StagerFunc) Stage(name string, repo *rule.Repository) (int, error) { return f(name, repo) }

// Engine ties the induction subsystem together: the unrouted-page
// buffer, the planner that promotes stable buckets to jobs, the worker
// pool that runs them, and the truth-source chain that stands in for
// the operator. One engine is shared by the extractd daemon and the
// retrozilla batch mode. All methods are safe for concurrent use.
type Engine struct {
	cfg      Config
	buffer   *UnroutedBuffer
	stager   Stager
	examples *MapTruth

	truthMu sync.RWMutex
	truth   []TruthSource

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*Job
	order   []string
	pending []string // queued job ids, FIFO
	nextJob int
	active  int // queued + running
	closed  bool
	wg      sync.WaitGroup

	// journal receives job transitions and example merges for the
	// persistence WAL (captures go through the buffer's own hook).
	// Emitted under e.mu so record order matches mutation order;
	// attached via SetJournal only after boot replay.
	journal Journal
}

// Journal is the persistence hook set: each func (any may be nil)
// receives one class of induction mutation for the write-ahead log.
// Hooks are called under the engine's (or buffer's) lock — they must
// only append to the log, never call back into the engine.
type Journal struct {
	// Capture receives every retained unrouted page's markup (its raw
	// source, or the tree rendered once for pages that arrived without
	// one), with the trace ID of the request that delivered it.
	Capture func(uri, html, trace string)
	// Job receives a snapshot of a job after every state transition
	// (queued, running, staged, promoted, failed, cancelled) — replay
	// upserts by ID, so only the last record per job matters.
	Job func(j *Job)
	// Examples receives every operator example merge.
	Examples func(examples map[string]map[string][]string)
}

// SetJournal attaches the persistence hooks. Call after boot replay
// has finished and before new traffic flows, so replayed mutations are
// not re-journaled.
func (e *Engine) SetJournal(j Journal) {
	e.buffer.mu.Lock()
	e.buffer.journal = j.Capture
	e.buffer.mu.Unlock()
	e.mu.Lock()
	e.journal = j
	e.mu.Unlock()
}

// journalJobLocked emits a job record; caller holds e.mu.
func (e *Engine) journalJobLocked(j *Job) {
	if e.journal.Job != nil {
		e.journal.Job(j.clone())
	}
}

// NewEngine creates an engine and starts its worker pool.
func NewEngine(cfg Config, stager Stager) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:      cfg,
		buffer:   NewUnroutedBuffer(cfg),
		stager:   stager,
		examples: NewMapTruth(),
		jobs:     map[string]*Job{},
	}
	e.cond = sync.NewCond(&e.mu)
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Buffer exposes the unrouted-page buffer (capture wiring, metrics).
func (e *Engine) Buffer() *UnroutedBuffer { return e.buffer }

// Capture buffers one unrouted page; it reports whether the page was
// retained.
func (e *Engine) Capture(p *core.Page) bool {
	return e.CaptureTraced(p, "")
}

// CaptureTraced is Capture carrying the trace ID of the request that
// delivered the page, so jobs planned over the bucket can name the
// traffic that triggered them. It fingerprints the page itself; callers
// that already hold the page's features use CaptureFingerprinted.
func (e *Engine) CaptureTraced(p *core.Page, trace string) bool {
	_, ok := e.buffer.addPage(p, trace)
	return ok
}

// CaptureFingerprinted buffers a page whose clustering features the
// caller already computed with streamx.FingerprintPage — the router's
// fingerprint pass — so capturing an unparsed page neither parses nor
// fingerprints it again. It reports whether the page was retained.
func (e *Engine) CaptureFingerprinted(p *core.Page, f cluster.Features, trace string) bool {
	if p == nil || !hasMarkup(p) {
		return false
	}
	_, ok := e.buffer.addMarkup(p.URI, pageMarkup(p), f, trace)
	return ok
}

// log returns the configured transition logger, never nil.
func (e *Engine) log() *slog.Logger {
	if e.cfg.Logger != nil {
		return e.cfg.Logger
	}
	return nopLogger
}

var nopLogger = slog.New(slog.DiscardHandler)

// AddTruth appends a truth source to the oracle chain. Sources are
// consulted in insertion order, after the operator example store.
func (e *Engine) AddTruth(src TruthSource) {
	if src == nil {
		return
	}
	e.truthMu.Lock()
	e.truth = append(e.truth, src)
	e.truthMu.Unlock()
}

// AddExamples merges operator-supplied component values (POST /induce)
// into the example store. Serialized under e.mu so the journal's record
// order matches merge order — last-wins semantics must replay the same.
func (e *Engine) AddExamples(examples map[string]map[string][]string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.examples.Merge(examples)
	if e.journal.Examples != nil {
		e.journal.Examples(examples)
	}
}

// lookupValues resolves the remembered component values for a URI:
// operator examples first, then the truth-source chain.
func (e *Engine) lookupValues(uri string) map[string][]string {
	if v := e.examples.Values(uri); v != nil {
		return v
	}
	e.truthMu.RLock()
	defer e.truthMu.RUnlock()
	for _, src := range e.truth {
		if v := src.Values(uri); v != nil {
			return v
		}
	}
	return nil
}

// Plan is the planner pass: every bucket that is big enough, has a
// stable centroid, no active job and enough oracle-covered pages is
// promoted to a queued job. It returns the newly queued jobs.
func (e *Engine) Plan() []*Job {
	var queued []*Job
	for _, info := range e.buffer.Buckets() {
		if info.JobID != "" || info.Pages < e.cfg.MinPages || info.Streak < e.cfg.StableStreak {
			continue
		}
		covered := 0
		for _, uri := range info.URIs {
			if len(e.lookupValues(uri)) > 0 {
				covered++
			}
		}
		if covered < e.cfg.MinSample {
			continue
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			break
		}
		e.nextJob++
		now := time.Now()
		j := &Job{
			ID: fmt.Sprintf("j%d", e.nextJob), Bucket: info.ID, Cluster: info.Name,
			State: JobQueued, Pages: info.Pages, Created: now, Updated: now,
			Trace: info.Trace,
		}
		if !e.buffer.setJob(info.ID, j.ID) {
			e.nextJob--
			e.mu.Unlock()
			continue
		}
		e.jobs[j.ID] = j
		e.order = append(e.order, j.ID)
		e.pending = append(e.pending, j.ID)
		e.active++
		e.journalJobLocked(j)
		c := j.clone()
		queued = append(queued, c)
		e.cond.Broadcast()
		e.mu.Unlock()
		e.log().Info("induct.job.queued", "job", c.ID, "bucket", c.Bucket,
			"cluster", c.Cluster, "pages", c.Pages, "trace", c.Trace)
	}
	return queued
}

// worker drains the queued-job list until Close.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for len(e.pending) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.pending) == 0 && e.closed {
			e.mu.Unlock()
			return
		}
		id := e.pending[0]
		e.pending = e.pending[1:]
		j := e.jobs[id]
		if j == nil || j.State != JobQueued {
			e.mu.Unlock()
			continue
		}
		j.State = JobRunning
		j.Updated = time.Now()
		j.Started = j.Updated
		e.journalJobLocked(j)
		bucket, trace := j.Bucket, j.Trace
		e.mu.Unlock()
		e.log().Info("induct.job.running", "job", id, "bucket", bucket, "trace", trace)
		e.safeRunJob(id)
	}
}

// safeRunJob quarantines a panicking job: one poisoned bucket or truth
// source fails its own job, the worker (and every job behind it)
// survives.
func (e *Engine) safeRunJob(id string) {
	defer func() {
		if v := recover(); v != nil {
			pe := &resilient.PanicError{Val: v, Stack: debug.Stack()}
			e.log().Error("induct.job.panic", "job", id,
				"panic", fmt.Sprint(v), "stack", string(pe.Stack))
			if e.cfg.OnPanic != nil {
				e.cfg.OnPanic(pe)
			}
			e.finishJob(id, JobFailed, pe.Error())
		}
	}()
	e.runJob(id)
}

// finishJob moves a job to a terminal (or staged) state and releases its
// bucket when the outcome allows re-planning.
func (e *Engine) finishJob(id string, state JobState, errMsg string) {
	e.mu.Lock()
	var c *Job
	j := e.jobs[id]
	if j != nil && j.State != JobQueued && j.State != JobRunning {
		// Already terminal: a panic after the job finished (e.g. in a
		// truth source consulted late) must not double-finish it.
		j = nil
	}
	if j != nil {
		j.State = state
		j.Error = errMsg
		j.Updated = time.Now()
		j.Finished = j.Updated
		e.active--
		if state == JobFailed || state == JobCancelled {
			e.buffer.clearJob(j.Bucket)
		}
		e.journalJobLocked(j)
		c = j.clone()
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	if c != nil {
		level := slog.LevelInfo
		if state == JobFailed {
			level = slog.LevelWarn
		}
		e.log().Log(context.Background(), level, "induct.job."+string(state),
			"job", id, "bucket", c.Bucket, "cluster", c.Cluster,
			"version", c.Version, "error", errMsg, "trace", c.Trace)
	}
}

// runJob executes one induction job: sample selection, the paper's
// candidate/check/refine loop per component (core.BuildAll's loop, with
// per-component error isolation and cancellation points), repository
// assembly with the cluster signature recorded, and staging.
func (e *Engine) runJob(id string) {
	e.mu.Lock()
	j := e.jobs[id]
	bucketID := j.Bucket
	e.mu.Unlock()

	caps, sig, name, ok := e.buffer.snapshot(bucketID)
	if !ok || len(caps) == 0 {
		e.finishJob(id, JobFailed, "bucket evicted before the job ran")
		return
	}
	if len(caps) < e.cfg.MinSample {
		// The planner saw a big-enough bucket, but byte-cap eviction
		// drained it while the job sat queued — a distinct outcome from
		// a build failure, so operators can tell cap pressure from bad
		// rules.
		e.finishJob(id, JobFailed, fmt.Sprintf(
			"sample evaporated: bucket holds %d of the %d pages seen at planning (need %d)",
			len(caps), j.Pages, e.cfg.MinSample))
		return
	}

	// Working sample (§3.1): only oracle-covered pages participate — the
	// builder checks rules against the oracle's answers, and a page the
	// oracle knows nothing about would read as "component absent"
	// everywhere, poisoning the optionality refinement. Capture order
	// keeps the selection deterministic. The component inventory comes
	// from the sample pages only: a component evidenced solely outside
	// the sample has no oracle answer the builder could seed from.
	var sample core.Sample
	compSet := map[string]bool{}
	for _, c := range caps {
		if len(sample) >= e.cfg.SampleSize {
			break
		}
		vals := e.lookupValues(c.URI)
		if len(vals) == 0 {
			continue
		}
		sample = append(sample, c.Page())
		for comp := range vals {
			compSet[comp] = true
		}
	}
	if len(sample) < e.cfg.MinSample {
		e.finishJob(id, JobFailed, fmt.Sprintf(
			"insufficient oracle coverage: %d of %d pages have examples (need %d)",
			len(sample), len(caps), e.cfg.MinSample))
		return
	}
	components := make([]string, 0, len(compSet))
	for comp := range compSet {
		components = append(components, comp)
	}
	sort.Strings(components)

	e.mu.Lock()
	j.Cluster = name
	j.Sample = len(sample)
	j.Components = map[string]string{}
	e.mu.Unlock()

	builder := &core.Builder{
		Sample: sample,
		Oracle: core.ValueOracle(e.lookupValues),
	}
	repo := rule.NewRepository(name)
	recorded := 0
	for _, comp := range components {
		if e.cancelled(id) {
			e.finishJob(id, JobCancelled, "")
			return
		}
		outcome := ""
		res, err := builder.BuildRule(comp)
		switch {
		case err != nil:
			outcome = "error: " + err.Error()
		case !res.OK:
			outcome = "not-converged"
		default:
			if err := repo.Record(res.Rule); err != nil {
				outcome = "error: " + err.Error()
				break
			}
			outcome = fmt.Sprintf("recorded(%d refinements)", len(res.Actions))
			recorded++
		}
		e.mu.Lock()
		j.Components[comp] = outcome
		j.Updated = time.Now()
		e.mu.Unlock()
	}
	if recorded == 0 {
		e.finishJob(id, JobFailed, "no component rule converged on the working sample")
		return
	}
	repo.Signature = sig

	if e.cancelled(id) {
		e.finishJob(id, JobCancelled, "")
		return
	}
	version, err := e.stager.Stage(name, repo)
	if err != nil {
		e.finishJob(id, JobFailed, "staging: "+err.Error())
		return
	}
	e.mu.Lock()
	j.Version = version
	e.mu.Unlock()
	e.finishJob(id, JobStaged, "")
}

func (e *Engine) cancelled(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	j := e.jobs[id]
	return j == nil || j.cancel
}

// Job returns a copy of one job.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// Jobs returns copies of every job in creation order.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Job, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.jobs[id].clone())
	}
	return out
}

// Cancel stops a queued, running or staged job. Queued jobs terminate
// immediately; running jobs stop at the next component boundary; a
// staged job is dismissed (the staged registry version stays retained
// but inactive) and — like failure — releases its bucket, so a bucket
// whose induced rules the operator rejects does not stay pinned
// forever.
func (e *Engine) Cancel(id string) (*Job, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("induct: no job %q", id)
	}
	if j.promoting {
		e.mu.Unlock()
		return nil, fmt.Errorf("induct: job %q is being promoted", id)
	}
	switch j.State {
	case JobQueued:
		j.State = JobCancelled
		j.Updated = time.Now()
		j.Finished = j.Updated
		e.active--
		e.buffer.clearJob(j.Bucket)
		e.cond.Broadcast()
		e.journalJobLocked(j)
		c := j.clone()
		e.mu.Unlock()
		e.log().Info("induct.job.cancelled", "job", c.ID, "bucket", c.Bucket, "trace", c.Trace)
		return c, nil
	case JobRunning:
		j.cancel = true
		c := j.clone()
		e.mu.Unlock()
		return c, nil
	case JobStaged:
		j.State = JobCancelled
		j.Updated = time.Now()
		j.Finished = j.Updated
		e.buffer.clearJob(j.Bucket)
		e.journalJobLocked(j)
		c := j.clone()
		e.mu.Unlock()
		e.log().Info("induct.job.cancelled", "job", c.ID, "bucket", c.Bucket, "trace", c.Trace)
		return c, nil
	default:
		e.mu.Unlock()
		return nil, fmt.Errorf("induct: job %q is %s, not cancellable", id, j.State)
	}
}

// Promote claims a staged job, runs activate (the service layer's
// registry promote + router registration), and finalizes: on success
// the job is promoted and its bucket dropped (the pages are routable
// now); on failure the job returns to staged, untouched. The claim is
// atomic — concurrent Promote and Cancel calls on the same job cannot
// interleave their side effects.
func (e *Engine) Promote(id string, activate func(*Job) error) (*Job, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("induct: no job %q", id)
	}
	if j.promoting {
		e.mu.Unlock()
		return nil, fmt.Errorf("induct: job %q is already being promoted", id)
	}
	if j.State != JobStaged {
		e.mu.Unlock()
		return nil, fmt.Errorf("induct: job %q is %s, not staged", id, j.State)
	}
	j.promoting = true
	claim := j.clone()
	e.mu.Unlock()

	err := activate(claim)

	e.mu.Lock()
	defer e.mu.Unlock()
	j.promoting = false
	if err != nil {
		return nil, err
	}
	j.State = JobPromoted
	j.Updated = time.Now()
	e.buffer.dropBucket(j.Bucket)
	e.journalJobLocked(j)
	c := j.clone()
	e.log().Info("induct.job.promoted", "job", c.ID, "bucket", c.Bucket,
		"cluster", c.Cluster, "version", c.Version, "trace", c.Trace)
	return c, nil
}

// Counts returns the job tally by state; the queued/running/staged/
// failed keys are always present so metrics consumers see explicit
// zeroes.
func (e *Engine) Counts() map[string]int64 {
	out := map[string]int64{
		string(JobQueued): 0, string(JobRunning): 0,
		string(JobStaged): 0, string(JobFailed): 0,
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, j := range e.jobs {
		out[string(j.State)]++
	}
	return out
}

// Wait blocks until no job is queued or running — the batch driver's
// join point.
func (e *Engine) Wait() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.active > 0 {
		e.cond.Wait()
	}
}

// Close stops the worker pool after the queue drains. Plan becomes a
// no-op afterwards; Capture still buffers (harmless — nothing will
// plan over it).
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}
