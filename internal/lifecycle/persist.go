package lifecycle

import (
	"sort"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/extract"
)

// Persistence support: a monitor's drift window, cumulative counters
// and golden-value sample buffer export to JSON-friendly structs for
// the store snapshot and restore on boot. Monitors are snapshot-only
// durable — journaling every Observe would put a WAL write on the
// extraction hot path, so a crash loses at most the observations since
// the last snapshot (the window refills from live traffic in seconds,
// and golden values re-learn the same way they were learned).

// SampleState is one retained page observation, shaped for the
// snapshot. The page round-trips as rendered markup.
type SampleState struct {
	URI      string              `json:"uri"`
	HTML     string              `json:"html"`
	Golden   map[string][]string `json:"golden,omitempty"`
	Failing  bool                `json:"failing,omitempty"`
	Failures []extract.Failure   `json:"failures,omitempty"`
	Seq      int64               `json:"seq"`
}

// MonitorState is one monitor's full state, shaped for the snapshot.
type MonitorState struct {
	Window      []bool           `json:"window"`
	WPos        int              `json:"wpos"`
	WLen        int              `json:"wlen"`
	WFails      int              `json:"wfails"`
	Pages       int64            `json:"pages"`
	ByKind      map[string]int64 `json:"byKind,omitempty"`
	ByComponent map[string]int64 `json:"byComponent,omitempty"`
	Seq         int64            `json:"seq"`
	Tripped     bool             `json:"tripped,omitempty"`
	Alarms      int64            `json:"alarms,omitempty"`
	Attempted   bool             `json:"attempted,omitempty"`
	SinceAtt    int              `json:"sinceAttempt,omitempty"`
	Samples     []SampleState    `json:"samples,omitempty"`
}

// ExportState snapshots the monitor for persistence. The transient
// repairing flag is deliberately not captured: a repair that was
// in flight when the process died is simply gone, and the restored
// alarm state lets the auto-repairer start a fresh one.
func (m *Monitor) ExportState() *MonitorState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &MonitorState{
		Window: append([]bool(nil), m.window...),
		WPos:   m.wpos, WLen: m.wlen, WFails: m.wfails,
		Pages: m.pages, Seq: m.seq,
		Tripped: m.tripped, Alarms: m.alarms,
		Attempted: m.attempted, SinceAtt: m.sinceAttempt,
	}
	if len(m.byKind) > 0 {
		st.ByKind = make(map[string]int64, len(m.byKind))
		for k, v := range m.byKind {
			st.ByKind[k] = v
		}
	}
	if len(m.byComponent) > 0 {
		st.ByComponent = make(map[string]int64, len(m.byComponent))
		for k, v := range m.byComponent {
			st.ByComponent[k] = v
		}
	}
	for uri, s := range m.buffer {
		ss := SampleState{
			URI: uri, Failing: s.Failing, Failures: s.Failures, Seq: s.seq,
		}
		if s.Page != nil {
			if src, lazy := s.Page.Source(); lazy && s.Page.Doc == nil {
				// Stream-extracted samples still carry their raw HTML;
				// snapshotting it avoids parsing every sampled page just
				// to re-serialize the tree.
				ss.HTML = src
			} else if s.Page.Doc != nil {
				ss.HTML = dom.Render(s.Page.Doc)
			}
		}
		if len(s.Golden) > 0 {
			ss.Golden = make(map[string][]string, len(s.Golden))
			for comp, vals := range s.Golden {
				ss.Golden[comp] = append([]string(nil), vals...)
			}
		}
		st.Samples = append(st.Samples, ss)
	}
	// Deterministic order (the buffer is a map): successive exports of
	// the same state must serialize identically.
	sort.Slice(st.Samples, func(i, j int) bool { return st.Samples[i].Seq < st.Samples[j].Seq })
	return st
}

// RestoreState rebuilds the monitor from a snapshot. When the restored
// window length differs from the configured WindowSize (the operator
// changed the flag between runs), the window and alarm reset — but the
// cumulative counters and the sample buffer survive, because golden
// values stay valid evidence regardless of window tuning.
func (m *Monitor) RestoreState(st *MonitorState) {
	if st == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(st.Window) == m.cfg.WindowSize {
		copy(m.window, st.Window)
		m.wpos, m.wlen, m.wfails = st.WPos, st.WLen, st.WFails
		m.tripped = st.Tripped
		m.attempted = st.Attempted
		m.sinceAttempt = st.SinceAtt
	}
	m.pages = st.Pages
	m.seq = st.Seq
	m.alarms = st.Alarms
	for k, v := range st.ByKind {
		m.byKind[k] = v
	}
	for k, v := range st.ByComponent {
		m.byComponent[k] = v
	}
	for _, ss := range st.Samples {
		page := core.NewPage(ss.URI, ss.HTML)
		if page == nil || page.Doc == nil {
			continue
		}
		s := &Sample{
			Page: page, Failing: ss.Failing, Failures: ss.Failures, seq: ss.Seq,
			Golden: map[string][]string{},
		}
		for comp, vals := range ss.Golden {
			s.Golden[comp] = append([]string(nil), vals...)
		}
		m.buffer[ss.URI] = s
	}
	m.relinkLocked()
	m.evictLocked()
}
