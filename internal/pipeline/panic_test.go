package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/resilient"
)

type sliceSource struct {
	pages []*core.Page
	i     int
}

func (s *sliceSource) Next(ctx context.Context) (*core.Page, error) {
	if s.i >= len(s.pages) {
		return nil, io.EOF
	}
	p := s.pages[s.i]
	s.i++
	return p, nil
}

type collectSink struct {
	mu    sync.Mutex
	items []*Item
}

func (s *collectSink) Emit(it *Item) error {
	s.mu.Lock()
	s.items = append(s.items, it)
	s.mu.Unlock()
	return nil
}

func (s *collectSink) Close() error { return nil }

// TestRunQuarantinesExtractorPanic: a page that makes the extractor
// panic fails as its own item — the run completes, other pages extract,
// and the panic surfaces as a structured *PageError.
func TestRunQuarantinesExtractorPanic(t *testing.T) {
	pages := []*core.Page{
		{URI: "http://s/ok1"}, {URI: "http://s/poison"}, {URI: "http://s/ok2"},
	}
	var panics []string
	cfg := Config{
		Workers:    2,
		Classifier: FixedRepo("r"),
		Extractor: extractorFunc(func(ctx context.Context, repo string, p *core.Page) (*extract.Element, map[string][]string, []extract.Failure, error) {
			if strings.Contains(p.URI, "poison") {
				panic("poisoned rule: nil template")
			}
			return &extract.Element{}, nil, nil, nil
		}),
		OnPanic: func(stage string, pe *resilient.PanicError) {
			panics = append(panics, stage+": "+pe.Error())
		},
	}
	sink := &collectSink{}
	stats, err := Run(context.Background(), cfg, &sliceSource{pages: pages}, sink)
	if err != nil {
		t.Fatalf("run aborted: %v (a page panic must not abort the run)", err)
	}
	if stats.Pages != 3 || stats.Extracted != 2 || stats.PageErrors != 1 {
		t.Fatalf("stats = %+v, want 3 pages / 2 extracted / 1 error", stats)
	}
	var failed *Item
	for _, it := range sink.items {
		if it.Err != nil {
			failed = it
		}
	}
	if failed == nil || !strings.Contains(failed.Page.URI, "poison") {
		t.Fatalf("failed item = %+v, want the poison page", failed)
	}
	var pageErr *PageError
	if !errors.As(failed.Err, &pageErr) || !strings.Contains(pageErr.URI, "poison") {
		t.Fatalf("err = %v, want *PageError naming the page", failed.Err)
	}
	var pe *resilient.PanicError
	if !errors.As(failed.Err, &pe) {
		t.Fatalf("err = %v, want wrapped *resilient.PanicError", failed.Err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error carries no stack")
	}
	if len(panics) != 1 || !strings.Contains(panics[0], "extract") {
		t.Fatalf("OnPanic observed %v, want one extract-stage panic", panics)
	}
}

// TestRunQuarantinesClassifierPanic: same policy for the classify stage.
func TestRunQuarantinesClassifierPanic(t *testing.T) {
	pages := []*core.Page{{URI: "http://s/a"}, {URI: "http://s/b"}}
	cfg := Config{
		Workers: 1,
		Classifier: ClassifierFunc(func(p *core.Page) (string, float64, error) {
			if strings.HasSuffix(p.URI, "/a") {
				panic("router table corrupt")
			}
			return "r", 1, nil
		}),
	}
	sink := &collectSink{}
	stats, err := Run(context.Background(), cfg, &sliceSource{pages: pages}, sink)
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if stats.Pages != 2 || stats.PageErrors != 1 {
		t.Fatalf("stats = %+v, want 2 pages / 1 error", stats)
	}
	var pe *resilient.PanicError
	if !errors.As(sink.items[0].Err, &pe) {
		t.Fatalf("item 0 err = %v, want PanicError", sink.items[0].Err)
	}
}

type extractorFunc func(ctx context.Context, repo string, p *core.Page) (*extract.Element, map[string][]string, []extract.Failure, error)

func (f extractorFunc) Extract(ctx context.Context, repo string, p *core.Page) (*extract.Element, map[string][]string, []extract.Failure, error) {
	return f(ctx, repo, p)
}

// TestRunQuarantinesSinkPanic: Emit runs on a pipeline worker, so a
// sink that panics must fail the run with an error and report the panic
// under the "sink" stage — never crash the process.
func TestRunQuarantinesSinkPanic(t *testing.T) {
	var pages []*core.Page
	for i := 0; i < 32; i++ {
		pages = append(pages, core.NewPageLazy(fmt.Sprintf("http://s/p%d", i), "<p>x</p>"))
	}
	var mu sync.Mutex
	var stages []string
	cfg := Config{
		Workers: 2,
		OnPanic: func(stage string, pe *resilient.PanicError) {
			mu.Lock()
			stages = append(stages, stage)
			mu.Unlock()
		},
	}
	n := 0
	sink := FuncSink(func(it *Item) error {
		if n++; n == 3 {
			panic("sink exploded")
		}
		return nil
	})
	_, err := Run(context.Background(), cfg, &sliceSource{pages: pages}, sink)
	var pe *resilient.PanicError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "sink exploded") {
		t.Fatalf("err = %v, want the run failed with the sink's *resilient.PanicError", err)
	}
	if n != 3 {
		t.Errorf("sink saw %d items, want none after the panic on the 3rd", n)
	}
	if len(stages) != 1 || stages[0] != "sink" {
		t.Fatalf("OnPanic observed %v, want one sink-stage panic", stages)
	}
}
