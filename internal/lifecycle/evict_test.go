package lifecycle

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/extract"
)

// scanModel is the reference eviction: a full scan per eviction that
// drops the oldest passing sample, or the oldest failing one when no
// passing sample is left.
type scanModel struct {
	size    int
	seq     int64
	samples map[string]scanSample
}

type scanSample struct {
	seq     int64
	failing bool
}

func (m *scanModel) observe(uri string, failing bool) {
	m.seq++
	m.samples[uri] = scanSample{m.seq, failing}
	for len(m.samples) > m.size {
		victim, victimSeq, victimFailing := "", int64(-1), true
		for u, s := range m.samples {
			better := false
			if s.failing != victimFailing {
				better = !s.failing
			} else {
				better = victimSeq < 0 || s.seq < victimSeq
			}
			if better {
				victim, victimSeq, victimFailing = u, s.seq, s.failing
			}
		}
		delete(m.samples, victim)
	}
}

func (m *scanModel) uris() []string {
	out := make([]string, 0, len(m.samples))
	for u := range m.samples {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

func bufferedURIs(m *Monitor) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.buffer))
	for u := range m.buffer {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// evictOp is one random observation: which of a small URI pool, and
// whether the page had a failure.
type evictOp struct {
	URI     uint8
	Failing bool
}

var evictPages = func() []*core.Page {
	out := make([]*core.Page, 24)
	for i := range out {
		out[i] = core.NewPageLazy(fmt.Sprintf("http://site.example/p/%d", i), "<p>x</p>")
	}
	return out
}()

func observeOp(m *Monitor, op evictOp) {
	var fails []extract.Failure
	if op.Failing {
		fails = []extract.Failure{{Component: "price", Kind: extract.FailureMissingMandatory}}
	}
	m.Observe(evictPages[int(op.URI)%len(evictPages)], map[string][]string{"title": {"t"}}, fails)
}

// TestEvictionMatchesScan is the property test of the O(1) eviction
// lists: on random observe sequences (re-observed URIs flipping between
// passing and failing included), the monitor keeps exactly the samples
// the full scan keeps — also across an export/restore halfway through.
func TestEvictionMatchesScan(t *testing.T) {
	prop := func(ops []evictOp, size uint8) bool {
		cfg := Config{BufferSize: 1 + int(size)%10}
		m := NewMonitor(cfg)
		model := &scanModel{size: cfg.BufferSize, samples: map[string]scanSample{}}
		for i, op := range ops {
			if i == len(ops)/2 {
				restored := NewMonitor(cfg)
				restored.RestoreState(m.ExportState())
				m = restored
			}
			observeOp(m, op)
			model.observe(evictPages[int(op.URI)%len(evictPages)].URI, op.Failing)
			if got, want := bufferedURIs(m), model.uris(); !reflect.DeepEqual(got, want) {
				t.Logf("op %d (%+v): buffer %v, scan %v", i, op, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkObserve measures one observation against a full default-size
// buffer — the per-page cost every extracted page pays: each new URI
// evicts one sample.
func BenchmarkObserve(b *testing.B) {
	m := NewMonitor(Config{})
	pages := make([]*core.Page, 256)
	for i := range pages {
		pages[i] = core.NewPageLazy(fmt.Sprintf("http://site.example/b/%d", i), "<p>x</p>")
	}
	values := map[string][]string{"title": {"t"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Observe(pages[i%len(pages)], values, nil)
	}
}
