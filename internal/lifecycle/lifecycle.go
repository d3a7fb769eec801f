// Package lifecycle closes the paper's §7 maintenance loop for a
// long-running extraction service. The paper observes that wrapper
// failures "can be automatically detected when a mandatory component
// cannot be found in one page or when the extraction of a single-valued
// text component returns more than one node", and that a broken rule
// "should be refined from the negative examples". The offline half of
// that loop already exists (core.Check verdicts, core.Repair); this
// package supplies the online half:
//
//   - a per-repository Monitor samples live extraction results through
//     the §3.4/§7 mismatch taxonomy (mandatory-void and
//     multi-valued-singleton detectors) over a sliding window, and trips
//     a drift alarm when the failing-page ratio crosses a threshold;
//   - a bounded sample buffer retains recently seen pages together with
//     their last-known-good ("golden") component values;
//   - Repair drives core.Repair over the buffer, with core.ValueOracle
//     standing in for the operator, and shadow-evaluates the candidate
//     repository against the buffer before anyone promotes it.
//
// The Monitor is storage-only aware: it never touches the registry.
// Staging, promotion and rollback of the repaired repository are the
// service layer's job, so the swap logic lives next to the other
// versioned-registry operations.
package lifecycle

import (
	"log/slog"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/extract"
)

// Config tunes a Monitor. The zero value means defaults.
type Config struct {
	// WindowSize is the number of recent page extractions in the sliding
	// failure-rate window (default 50).
	WindowSize int
	// MinSamples is the minimum number of windowed observations before
	// the drift alarm may trip (default 10).
	MinSamples int
	// TripRatio is the failing-page ratio (0..1] that trips the alarm
	// (default 0.3).
	TripRatio float64
	// BufferSize bounds the retained page samples (default 64).
	BufferSize int
	// RepairSample caps the pages handed to the repair builder
	// (default 10, the paper's working-sample practice).
	RepairSample int
	// Logger receives monitor events (drift alarms, repair reports).
	// Nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.WindowSize <= 0 {
		c.WindowSize = 50
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.TripRatio <= 0 || c.TripRatio > 1 {
		c.TripRatio = 0.3
	}
	if c.BufferSize <= 0 {
		c.BufferSize = 64
	}
	if c.RepairSample <= 0 {
		c.RepairSample = 10
	}
	return c
}

// Sample is one retained page observation: the parsed page, its latest
// failure state, and the golden values per component — the values the
// last successful extraction of that component on this page produced.
type Sample struct {
	Page     *core.Page
	Golden   map[string][]string
	Failing  bool
	Failures []extract.Failure
	seq      int64 // recency, for eviction

	// prev/next link the sample into its monitor's passing or failing
	// eviction list (see sampleList).
	prev, next *Sample
}

// sampleList is an intrusive list of samples in seq order: an observed
// sample always carries the newest seq and goes to the tail, so the head
// is the oldest — the eviction victim, found in O(1).
type sampleList struct{ head, tail *Sample }

func (l *sampleList) push(s *Sample) {
	s.prev, s.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = s
	} else {
		l.head = s
	}
	l.tail = s
}

func (l *sampleList) remove(s *Sample) {
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		l.head = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		l.tail = s.prev
	}
	s.prev, s.next = nil, nil
}

// Monitor watches one repository's live extraction traffic. All methods
// are safe for concurrent use.
type Monitor struct {
	mu  sync.Mutex
	cfg Config

	// Sliding window of page outcomes (true = page had ≥1 detected
	// failure), a ring of cfg.WindowSize entries.
	window []bool
	wpos   int
	wlen   int
	wfails int

	// Cumulative counters since creation (survive window resets).
	pages       int64
	byKind      map[string]int64
	byComponent map[string]int64

	buffer map[string]*Sample // keyed by page URI
	// spare is the last evicted sample, cleared, with its Golden map
	// kept for the next new URI to reuse.
	spare *Sample
	seq   int64
	// passing and failing hold every buffered sample, by its Failing
	// state, in seq order.
	passing, failing sampleList

	tripped   bool
	alarms    int64
	repairing bool
	// Repair retry pacing: attempts since the alarm tripped, and
	// observations since the last attempt. A failed attempt (e.g. the
	// buffer still held too many pre-drift pages for the rebuild to
	// converge) retries after MinSamples more observations, by which
	// time the buffer has turned over toward the evolved pages.
	attempted    bool
	sinceAttempt int
}

// NewMonitor creates a monitor with the given (defaulted) config.
func NewMonitor(cfg Config) *Monitor {
	c := cfg.withDefaults()
	return &Monitor{
		cfg:         c,
		window:      make([]bool, c.WindowSize),
		byKind:      map[string]int64{},
		byComponent: map[string]int64{},
		buffer:      map[string]*Sample{},
	}
}

// Observe records one completed page extraction: the page itself, the
// flat component values extracted from it, and the detected failures.
// It returns whether the drift alarm is tripped, and whether this very
// observation tripped it (the auto-repair trigger edge).
//
// The value slices become golden values as they are, not copied: an
// extractor's values are immutable once returned, so the caller must not
// modify them afterwards.
func (m *Monitor) Observe(page *core.Page, values map[string][]string, failures []extract.Failure) (tripped, justTripped bool) {
	failed := len(failures) > 0

	m.mu.Lock()
	defer m.mu.Unlock()

	m.pages++
	for _, f := range failures {
		m.byKind[f.Kind.String()]++
		m.byComponent[f.Component]++
	}

	// Slide the window.
	if m.wlen == len(m.window) {
		if m.window[m.wpos] {
			m.wfails--
		}
	} else {
		m.wlen++
	}
	m.window[m.wpos] = failed
	if failed {
		m.wfails++
	}
	m.wpos = (m.wpos + 1) % len(m.window)

	// Retain the sample. Golden values update per component: a failing
	// page still yields trustworthy values for its non-failing
	// components, while failed components keep the golden values from
	// before the page evolved — the negative example plus the remembered
	// answer that repair needs.
	s, ok := m.buffer[page.URI]
	if ok {
		m.listOf(s).remove(s)
	} else {
		s = m.spare
		m.spare = nil
		if s == nil {
			s = &Sample{Golden: map[string][]string{}}
		}
		m.buffer[page.URI] = s
	}
	s.Page = page
	s.Failing = failed
	s.Failures = failures
	m.seq++
	s.seq = m.seq
	m.listOf(s).push(s)
	for comp, vals := range values {
		if len(vals) > 0 && !componentFailed(failures, comp) {
			s.Golden[comp] = vals
		}
	}
	m.evictLocked()

	// Alarm.
	m.sinceAttempt++
	if !m.tripped && m.wlen >= m.cfg.MinSamples &&
		float64(m.wfails)/float64(m.wlen) >= m.cfg.TripRatio {
		m.tripped = true
		m.alarms++
		justTripped = true
		m.logger().Warn("drift.alarm",
			"windowFailing", m.wfails, "windowSize", m.wlen,
			"ratio", float64(m.wfails)/float64(m.wlen), "alarms", m.alarms)
	}
	return m.tripped, justTripped
}

// logger returns the configured event logger, never nil.
func (m *Monitor) logger() *slog.Logger {
	if m.cfg.Logger != nil {
		return m.cfg.Logger
	}
	return nopLogger
}

var nopLogger = slog.New(slog.DiscardHandler)

// NeedsRepair reports whether an auto-repairer should attempt a repair
// now: the alarm is tripped, none is running, and either no attempt was
// made since the trip or enough fresh observations arrived to retry.
func (m *Monitor) NeedsRepair() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.tripped || m.repairing {
		return false
	}
	return !m.attempted || m.sinceAttempt >= m.cfg.MinSamples
}

// componentFailed reports whether any failure names the component — a
// scan, since a page has few failures and most have none.
func componentFailed(failures []extract.Failure, comp string) bool {
	for _, f := range failures {
		if f.Component == comp {
			return true
		}
	}
	return false
}

// listOf is the eviction list a sample belongs on.
func (m *Monitor) listOf(s *Sample) *sampleList {
	if s.Failing {
		return &m.failing
	}
	return &m.passing
}

// evictLocked drops least-recently-observed samples beyond BufferSize,
// preferring to keep failing samples (they are the repair evidence): the
// oldest passing sample goes first, the oldest failing one only when no
// passing sample is left. The last victim, cleared, becomes the spare.
func (m *Monitor) evictLocked() {
	for len(m.buffer) > m.cfg.BufferSize {
		victim := m.passing.head
		if victim == nil {
			victim = m.failing.head
		}
		m.listOf(victim).remove(victim)
		delete(m.buffer, victim.Page.URI)
		clear(victim.Golden)
		*victim = Sample{Golden: victim.Golden}
		m.spare = victim
	}
}

// relinkLocked rebuilds both eviction lists from the buffer in seq order
// (URI breaks ties, which only a restore onto live samples can create).
func (m *Monitor) relinkLocked() {
	all := make([]*Sample, 0, len(m.buffer))
	for _, s := range m.buffer {
		all = append(all, s)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].seq != all[j].seq {
			return all[i].seq < all[j].seq
		}
		return all[i].Page.URI < all[j].Page.URI
	})
	m.passing, m.failing = sampleList{}, sampleList{}
	for _, s := range all {
		m.listOf(s).push(s)
	}
}

// GoldenValues returns a copy of the remembered last-known-good
// component values for a page URI (nil when the page was never
// sampled). Besides repair, this feeds wrapper induction: a cluster
// that drifted so far its pages no longer route still has its values
// remembered here, so an induction job can rebuild rules for it without
// an operator.
func (m *Monitor) GoldenValues(uri string) map[string][]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.buffer[uri]
	if !ok || len(s.Golden) == 0 {
		return nil
	}
	out := make(map[string][]string, len(s.Golden))
	for comp, vals := range s.Golden {
		out[comp] = append([]string(nil), vals...)
	}
	return out
}

// Tripped reports the drift-alarm state.
func (m *Monitor) Tripped() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tripped
}

// ResetWindow clears the sliding window and the alarm — called after a
// repaired or rolled-back repository version went live, so the new
// version earns a fresh failure rate. The sample buffer and cumulative
// counters survive: golden values stay valid evidence.
func (m *Monitor) ResetWindow() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.window {
		m.window[i] = false
	}
	m.wpos, m.wlen, m.wfails = 0, 0, 0
	m.tripped = false
	m.attempted = false
	m.sinceAttempt = 0
}

// TryBeginRepair marks a repair in progress, refusing if one already is —
// the singleflight guard for the auto-repairer.
func (m *Monitor) TryBeginRepair() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.repairing {
		return false
	}
	m.repairing = true
	m.attempted = true
	m.sinceAttempt = 0
	return true
}

// EndRepair clears the in-progress mark.
func (m *Monitor) EndRepair() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.repairing = false
}

// Health is a point-in-time view of a monitor, shaped for JSON.
type Health struct {
	Status           string  `json:"status"` // "ok" or "drifting"
	PagesObserved    int64   `json:"pagesObserved"`
	WindowSize       int     `json:"windowSize"`
	WindowFailing    int     `json:"windowFailing"`
	FailureRatio     float64 `json:"failureRatio"`
	DriftAlarms      int64   `json:"driftAlarms"`
	RepairInProgress bool    `json:"repairInProgress"`

	// FailuresByKind uses the extract.FailureKind names
	// ("missing-mandatory" = the §7 mandatory-void detector,
	// "multiple-values" = the multi-valued-singleton detector).
	FailuresByKind      map[string]int64 `json:"failuresByKind,omitempty"`
	FailuresByComponent map[string]int64 `json:"failuresByComponent,omitempty"`

	BufferedPages   int `json:"bufferedPages"`
	BufferedFailing int `json:"bufferedFailing"`
}

// Health snapshots the monitor.
func (m *Monitor) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := Health{
		Status:           "ok",
		PagesObserved:    m.pages,
		WindowSize:       m.wlen,
		WindowFailing:    m.wfails,
		DriftAlarms:      m.alarms,
		RepairInProgress: m.repairing,
		BufferedPages:    len(m.buffer),
	}
	if m.tripped {
		h.Status = "drifting"
	}
	if m.wlen > 0 {
		h.FailureRatio = float64(m.wfails) / float64(m.wlen)
	}
	if len(m.byKind) > 0 {
		h.FailuresByKind = make(map[string]int64, len(m.byKind))
		for k, v := range m.byKind {
			h.FailuresByKind[k] = v
		}
	}
	if len(m.byComponent) > 0 {
		h.FailuresByComponent = make(map[string]int64, len(m.byComponent))
		for k, v := range m.byComponent {
			h.FailuresByComponent[k] = v
		}
	}
	for _, s := range m.buffer {
		if s.Failing {
			h.BufferedFailing++
		}
	}
	return h
}

// snapshotSamples copies the buffer as a deterministic slice: failing
// samples first, each group ordered by URI.
func (m *Monitor) snapshotSamples() []*Sample {
	m.mu.Lock()
	out := make([]*Sample, 0, len(m.buffer))
	uris := make(map[*Sample]string, len(m.buffer))
	for uri, s := range m.buffer {
		c := &Sample{Page: s.Page, Failing: s.Failing, Failures: s.Failures,
			Golden: make(map[string][]string, len(s.Golden))}
		for k, v := range s.Golden {
			c.Golden[k] = v
		}
		out = append(out, c)
		uris[c] = uri
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Failing != out[j].Failing {
			return out[i].Failing
		}
		return uris[out[i]] < uris[out[j]]
	})
	return out
}
