package service

import (
	"maps"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/extract"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// Metrics accumulates extractd's operational counters: requests and
// errors per endpoint, extraction failures by FailureKind, and an
// extraction-latency histogram whose count is the pages extracted. All
// methods are safe for concurrent use.
type Metrics struct {
	start   time.Time
	latency *obs.Histogram // extraction latency in seconds

	// mu guards every labeled counter together, so a snapshot sees them
	// at one instant: never more errors than requests.
	mu       sync.Mutex
	requests counts[string] // endpoint → count
	errors   counts[string] // endpoint → non-2xx count
	failures counts[string] // FailureKind.String() → count
	events   counts[string] // lifecycle event → count
	panics   counts[string] // stage → recovered panic count
	reasons  counts[string] // stream fallback reason → count
	recrawls counts[string] // scheduled recrawl outcome → count
	fetch    counts[fetchKey]

	// Hot-path counters are atomics, so a cache probe, a routing
	// decision or a stream hit never touches the mutex.
	cacheHits, cacheMisses                   atomic.Int64
	routerHits, routerMisses, routerUnrouted atomic.Int64
	fetchRetries, shed                       atomic.Int64
	streamHits, streamFallbacks              atomic.Int64

	// Pipeline carries the per-stage spine telemetry (Source/Classify/
	// Extract/Sink latency histograms, in-flight gauges, error counters)
	// shared by every pipeline run the server drives — /ingest,
	// /extract/batch — and snapshotted into /metrics.
	Pipeline *pipeline.Telemetry
}

// counts is a set of counters keyed by label value. It has no lock of
// its own: Metrics.mu guards them all.
type counts[K comparable] map[K]int64

func (c *counts[K]) inc(k K) {
	if *c == nil {
		*c = counts[K]{}
	}
	(*c)[k]++
}

// clone copies the counters into a fresh, never-nil map.
func (c counts[K]) clone() map[K]int64 {
	out := make(map[K]int64, len(c))
	maps.Copy(out, c)
	return out
}

// fetchKey indexes per-host fetch outcome counters.
type fetchKey struct{ host, outcome string }

// RouterOutcome classifies one auto-routing attempt.
type RouterOutcome int

// Router outcomes.
const (
	// RouterHit: the page was routed to a loaded repository.
	RouterHit RouterOutcome = iota
	// RouterMiss: routing was impossible — no routable signatures, or
	// the winning signature belongs to an unloaded repository.
	RouterMiss
	// RouterUnrouted: signatures exist, but none matched above the
	// threshold — the page belongs to no known cluster.
	RouterUnrouted
)

// Router records one auto-routing outcome.
func (m *Metrics) Router(o RouterOutcome) {
	switch o {
	case RouterHit:
		m.routerHits.Add(1)
	case RouterMiss:
		m.routerMisses.Add(1)
	case RouterUnrouted:
		m.routerUnrouted.Add(1)
	}
}

// NewMetrics creates zeroed metrics with the uptime clock started.
func NewMetrics() *Metrics {
	return &Metrics{
		start:    time.Now(),
		latency:  obs.NewHistogram(nil),
		Pipeline: pipeline.NewTelemetry(),
	}
}

// FetchRetry records one outbound fetch retry attempt.
func (m *Metrics) FetchRetry() { m.fetchRetries.Add(1) }

// Shed records one load-shed request: pool admission timed out and the
// request was rejected with 503 + Retry-After.
func (m *Metrics) Shed() { m.shed.Add(1) }

// FetchOutcome records the terminal outcome of one outbound fetch for a
// host: "ok", "transient" (retries exhausted), "permanent", or
// "breaker_open".
func (m *Metrics) FetchOutcome(host, outcome string) {
	m.mu.Lock()
	m.fetch.inc(fetchKey{host, outcome})
	m.mu.Unlock()
}

// PanicRecovered records one recovered panic, attributed to the stage
// that caught it ("handler", "pool", "classify", "extract", "induct",
// "repair").
func (m *Metrics) PanicRecovered(stage string) {
	m.mu.Lock()
	m.panics.inc(stage)
	m.mu.Unlock()
}

// StreamExtract records which path served one extraction: the streaming
// automaton (hit) or the parse+DOM fallback, attributed to its reason —
// a streamx.Compile refusal, "parsed-doc", "no-source", or "depth".
func (m *Metrics) StreamExtract(hit bool, reason string) {
	if hit {
		m.streamHits.Add(1)
		return
	}
	m.streamFallbacks.Add(1)
	m.mu.Lock()
	m.reasons.inc(reason)
	m.mu.Unlock()
}

// Recrawl records the outcome of one scheduled recrawl firing
// ("clean", "repaired" or "failed").
func (m *Metrics) Recrawl(outcome string) {
	m.mu.Lock()
	m.recrawls.inc(outcome)
	m.mu.Unlock()
}

// PageCache records one page-cache probe outcome.
func (m *Metrics) PageCache(hit bool) {
	if hit {
		m.cacheHits.Add(1)
	} else {
		m.cacheMisses.Add(1)
	}
}

// Lifecycle records one wrapper-lifecycle event (drift alarm tripped,
// repair attempted/promoted/failed, rollback, …).
func (m *Metrics) Lifecycle(event string) {
	m.mu.Lock()
	m.events.inc(event)
	m.mu.Unlock()
}

// Request records one request to an endpoint and whether it errored.
func (m *Metrics) Request(endpoint string, isError bool) {
	m.mu.Lock()
	m.requests.inc(endpoint)
	if isError {
		m.errors.inc(endpoint)
	}
	m.mu.Unlock()
}

// Extraction records one completed page extraction: its latency and any
// detected failures.
func (m *Metrics) Extraction(d time.Duration, failures []extract.Failure) {
	m.latency.Observe(d.Seconds())
	if len(failures) == 0 {
		return
	}
	m.mu.Lock()
	for _, f := range failures {
		m.failures.inc(f.Kind.String())
	}
	m.mu.Unlock()
}

// PoolSnapshot is the extraction pool's saturation picture: static sizing
// plus live queue depth and in-flight work.
type PoolSnapshot struct {
	Workers       int   `json:"workers"`
	QueueDepth    int   `json:"queueDepth"`
	QueueCapacity int   `json:"queueCapacity"`
	InFlight      int64 `json:"inFlight"`
	// SaturationRatio is InFlight/Workers: 1 means every worker is busy.
	SaturationRatio float64 `json:"saturationRatio"`
}

// BuildInfo identifies the running binary in /metrics.
type BuildInfo struct {
	GoVersion string `json:"goVersion"`
	Revision  string `json:"revision,omitempty"`
}

// readBuildInfo resolves the binary's build identity once at startup.
var readBuildInfo = sync.OnceValue(func() BuildInfo {
	info := BuildInfo{}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info.GoVersion = bi.GoVersion
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			info.Revision = s.Value
		}
	}
	return info
})

// Snapshot is a point-in-time copy of every operational counter — the
// single source of truth behind both /metrics views: the JSON body is
// this struct marshalled, and the Prometheus text exposition renders it
// through the family table in promexpo.go. Adding a metric takes a
// recording call (a Metrics method, or a line in MetricsSnapshot), a
// field here and one family entry; TestPromJSONParity fails on a field
// no family claims.
type Snapshot struct {
	UptimeSeconds      float64          `json:"uptimeSeconds"`
	Requests           map[string]int64 `json:"requests"`
	Errors             map[string]int64 `json:"errors,omitempty"`
	ExtractionFailures map[string]int64 `json:"extractionFailures,omitempty"`
	Lifecycle          map[string]int64 `json:"lifecycle,omitempty"`
	PagesExtracted     int64            `json:"pagesExtracted"`
	PageCacheHits      int64            `json:"pageCacheHits"`
	PageCacheMisses    int64            `json:"pageCacheMisses"`
	RouterHits         int64            `json:"routerHits"`
	RouterMisses       int64            `json:"routerMisses"`
	RouterUnrouted     int64            `json:"routerUnrouted"`
	// StreamHits counts extractions served by the streaming automaton
	// (no DOM built); StreamFallbacks counts extractions that went
	// through parse+DOM instead, broken down by StreamFallbackReasons.
	StreamHits            int64            `json:"streamHits"`
	StreamFallbacks       int64            `json:"streamFallbacks"`
	StreamFallbackReasons map[string]int64 `json:"streamFallbackReasons,omitempty"`
	// Induction counters, filled by the handler from the induct engine
	// when induction is enabled (the map always carries the
	// queued/running/staged/failed keys, explicit zeroes included).
	InductionJobs         map[string]int64 `json:"inductionJobs,omitempty"`
	UnroutedBuffered      int              `json:"unroutedBuffered"`
	UnroutedBufferedBytes int64            `json:"unroutedBufferedBytes,omitempty"`
	UnroutedEvicted       int64            `json:"unroutedEvicted,omitempty"`
	// UnroutedDropped counts pages the buffer refused outright (never
	// retained), distinct from evicted (retained then displaced).
	UnroutedDropped int64 `json:"unroutedDropped,omitempty"`
	// The extraction-latency histogram; PagesExtracted is its count.
	LatencySumSeconds float64               `json:"latencySumSeconds"`
	LatencyCount      int64                 `json:"latencyCount"`
	LatencyHistogram  []obs.HistogramBucket `json:"latencyHistogram"`
	// Pool is the extraction pool's live saturation state.
	Pool PoolSnapshot `json:"pool"`
	// Repos carries per-repo, per-version extraction counters from the
	// registry.
	Repos []RepoVersionCount `json:"repos,omitempty"`
	// Pipeline carries the per-stage spine telemetry.
	Pipeline pipeline.TelemetrySnapshot `json:"pipeline,omitempty"`
	// Store carries the durability layer's counters (nil when the daemon
	// runs memory-only).
	Store *store.Metrics `json:"store,omitempty"`
	// FetchRetries counts outbound fetch retry attempts.
	FetchRetries int64 `json:"fetchRetries,omitempty"`
	// Fetch carries per-host terminal fetch outcomes, sorted by host then
	// outcome.
	Fetch []FetchOutcomeCount `json:"fetch,omitempty"`
	// Breakers is the live per-host circuit-breaker state, filled from
	// the server's fetcher (0 closed, 1 half-open, 2 open).
	Breakers []BreakerStatus `json:"breakers,omitempty"`
	// Shed counts requests rejected by pool-admission load shedding.
	Shed int64 `json:"shed,omitempty"`
	// PanicsRecovered counts recovered panics by stage.
	PanicsRecovered map[string]int64 `json:"panicsRecovered,omitempty"`
	// Recrawls counts scheduled recrawl firings by outcome
	// (clean/repaired/failed).
	Recrawls map[string]int64 `json:"recrawls,omitempty"`
	// Schedules is the live recrawl cadence per registered repo (empty
	// when monitoring is disabled).
	Schedules []ScheduleMetric `json:"schedules,omitempty"`
	// ChangefeedRecords counts change-feed events emitted by this
	// process, by kind (new/changed/vanished).
	ChangefeedRecords map[string]int64 `json:"changefeedRecords,omitempty"`
	// Build identifies the running binary.
	Build BuildInfo `json:"build"`
}

// ScheduleMetric is one schedule's current recrawl interval in the
// snapshot.
type ScheduleMetric struct {
	Repo            string  `json:"repo"`
	IntervalSeconds float64 `json:"intervalSeconds"`
}

// FetchOutcomeCount is one (host, outcome) fetch counter of the snapshot.
type FetchOutcomeCount struct {
	Host    string `json:"host"`
	Outcome string `json:"outcome"`
	Count   int64  `json:"count"`
}

// BreakerStatus is one host's circuit-breaker state in the snapshot:
// 0 closed, 1 half-open, 2 open.
type BreakerStatus struct {
	Host  string `json:"host"`
	State int    `json:"state"`
}

// Snapshot returns a copy of every counter; the labeled counters are
// copied under one lock.
func (m *Metrics) Snapshot() Snapshot {
	lat := m.latency.Snapshot()
	s := Snapshot{
		UptimeSeconds:     time.Since(m.start).Seconds(),
		PagesExtracted:    lat.Count,
		PageCacheHits:     m.cacheHits.Load(),
		PageCacheMisses:   m.cacheMisses.Load(),
		RouterHits:        m.routerHits.Load(),
		RouterMisses:      m.routerMisses.Load(),
		RouterUnrouted:    m.routerUnrouted.Load(),
		StreamHits:        m.streamHits.Load(),
		StreamFallbacks:   m.streamFallbacks.Load(),
		LatencySumSeconds: lat.Sum,
		LatencyCount:      lat.Count,
		LatencyHistogram:  lat.Buckets,
		FetchRetries:      m.fetchRetries.Load(),
		Shed:              m.shed.Load(),
		Pipeline:          m.Pipeline.Snapshot(),
		Build:             readBuildInfo(),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s.Requests = m.requests.clone()
	s.Errors = m.errors.clone()
	s.ExtractionFailures = m.failures.clone()
	s.Lifecycle = m.events.clone()
	s.PanicsRecovered = m.panics.clone()
	s.StreamFallbackReasons = m.reasons.clone()
	s.Recrawls = m.recrawls.clone()
	for k, v := range m.fetch {
		s.Fetch = append(s.Fetch, FetchOutcomeCount{Host: k.host, Outcome: k.outcome, Count: v})
	}
	sort.Slice(s.Fetch, func(i, j int) bool {
		if s.Fetch[i].Host != s.Fetch[j].Host {
			return s.Fetch[i].Host < s.Fetch[j].Host
		}
		return s.Fetch[i].Outcome < s.Fetch[j].Outcome
	})
	return s
}

// MetricsSnapshot assembles the full observability snapshot: the
// Metrics counters plus the state owned by the server's other
// subsystems — extraction pool saturation, per-repo/per-version registry
// counters, and the induction engine's job and buffer state. Both
// /metrics views (JSON and Prometheus text) render exactly this value.
func (s *Server) MetricsSnapshot() Snapshot {
	snap := s.Metrics.Snapshot()
	workers := s.Pool.Workers()
	inFlight := s.Pool.InFlight()
	snap.Pool = PoolSnapshot{
		Workers:       workers,
		QueueDepth:    s.Pool.QueueDepth(),
		QueueCapacity: s.Pool.QueueCapacity(),
		InFlight:      inFlight,
	}
	if workers > 0 {
		snap.Pool.SaturationRatio = float64(inFlight) / float64(workers)
	}
	snap.Repos = s.Registry.CountsSnapshot()
	if s.Induct != nil {
		snap.InductionJobs = s.Induct.Counts()
		snap.UnroutedBuffered = s.Induct.Buffer().Len()
		snap.UnroutedBufferedBytes = s.Induct.Buffer().Bytes()
		snap.UnroutedEvicted = s.Induct.Buffer().Evicted()
		snap.UnroutedDropped = s.Induct.Buffer().Dropped()
	}
	if s.Store != nil {
		m := s.Store.Metrics()
		snap.Store = &m
	}
	if s.Scheduler != nil {
		for _, sc := range s.Scheduler.List() {
			snap.Schedules = append(snap.Schedules, ScheduleMetric{
				Repo:            sc.Repo,
				IntervalSeconds: sc.Interval.Seconds(),
			})
		}
		totals := s.Scheduler.Feed().TotalsByKind()
		if len(totals) > 0 {
			snap.ChangefeedRecords = totals
		}
	}
	if s.Fetcher != nil {
		states := s.Fetcher.BreakerStates()
		if len(states) > 0 {
			snap.Breakers = make([]BreakerStatus, 0, len(states))
			for _, ks := range states {
				snap.Breakers = append(snap.Breakers, BreakerStatus{Host: ks.Key, State: int(ks.State)})
			}
		}
	}
	return snap
}
