// Package pipeline is the single execution spine for whole-site
// ingestion: a streaming, bounded-concurrency run of
//
//	Source → Classify → Extract → Sink
//
// shared by the CLIs (crawl, extract, evaluate) and the extractd daemon.
// The paper's end goal (Figure 1) is migrating a whole site to XML; every
// driver used to re-implement its own gather→parse→apply loop, each with
// different buffering and error behaviour. Here the loop exists once:
// pages stream out of a Source, are classified to a rule repository
// (fixed, or routed by cluster signature), extracted on a bounded worker
// set and emitted to a Sink in source order — with backpressure end to
// end, so a site of any size flows through a window bounded both in
// pages and in page bytes.
//
// There is no emitter goroutine: the worker that finishes the oldest
// unemitted page emits it together with every finished page behind it.
// The sink is flushed when the window drains (no admitted page is left
// to emit) or once every page admitted when the oldest unflushed line
// went out has been emitted. A finished line so waits at most for the
// pages admitted behind it (fewer than Buffer+Workers, fewer still when
// the pages are large), never for input:
// a source that blocks on its reader leaves nothing admitted, and the
// lines out so far are flushed. Sink calls run on workers, one at a
// time, and a sink panic is recovered and fails the run like a sink
// error.
//
// Stages are optional: a nil Classifier passes pages through unrouted
// (fixed-repository extraction), a nil Extractor copies pages straight to
// the sink (the crawl CLI: gather without extracting).
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/resilient"
)

// Item is one page's journey through the pipeline, as delivered to the
// Sink. Exactly one of the failure modes holds per item: Err is set (the
// page never produced a record — classification or extraction refused
// it), or Element is set with zero or more detected extraction Failures.
type Item struct {
	// Seq is the page's arrival index, starting at 0. Ordered runs emit
	// items in Seq order.
	Seq int
	// Page is the parsed input page.
	Page *core.Page
	// Repo names the repository the page was classified to ("" when the
	// pipeline runs without classification and extraction).
	Repo string
	// Score is the router confidence for routed pages (1 for fixed
	// routes).
	Score float64
	// Element is the extracted record (nil when Err is set or the
	// pipeline has no Extractor).
	Element *extract.Element
	// Values is the flat component→values map behind Element.
	Values map[string][]string
	// Failures are the §7 extraction failures detected on this page.
	Failures []extract.Failure
	// Err is the page-level error, if the page could not be processed:
	// ErrUnrouted, a line decode error from an NDJSON source, an
	// extractor refusal. Page-level errors do not stop the run.
	Err error

	tokens int // window space held from admission to emission
}

// ErrUnrouted reports that no registered repository signature matched the
// page above the routing threshold — the page belongs to no cluster the
// system holds rules for.
var ErrUnrouted = errors.New("pipeline: page unrouted: no repository signature within threshold")

// PageError is a page-level input problem (for example one malformed
// NDJSON line): the Source reports it as an Item with Err set and the run
// continues. Any other Source error aborts the run.
type PageError struct {
	// Line is the 1-based physical input line, when the source is
	// line-oriented (0 otherwise).
	Line int
	// URI of the failed page, when known.
	URI string
	Err error
}

func (e *PageError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("line %d: %v", e.Line, e.Err)
	}
	if e.URI != "" {
		return fmt.Sprintf("%s: %v", e.URI, e.Err)
	}
	return e.Err.Error()
}

func (e *PageError) Unwrap() error { return e.Err }

// Source produces the pages of a run, one at a time. Next returns io.EOF
// when the stream ends, a *PageError for a recoverable per-page problem,
// and any other error to abort the run.
type Source interface {
	Next(ctx context.Context) (*core.Page, error)
}

// Classifier assigns a page to a rule repository. Returning ErrUnrouted
// (or any error) marks the item failed without stopping the run.
type Classifier interface {
	Classify(p *core.Page) (repo string, score float64, err error)
}

// ClassifierFunc adapts a function to Classifier.
type ClassifierFunc func(p *core.Page) (string, float64, error)

// Classify implements Classifier.
func (f ClassifierFunc) Classify(p *core.Page) (string, float64, error) { return f(p) }

// FixedRepo classifies every page to one repository.
func FixedRepo(name string) Classifier {
	return ClassifierFunc(func(*core.Page) (string, float64, error) { return name, 1, nil })
}

// Extractor runs one page extraction against a named repository. It must
// be safe for concurrent calls.
type Extractor interface {
	Extract(ctx context.Context, repo string, p *core.Page) (*extract.Element, map[string][]string, []extract.Failure, error)
}

// Sink consumes finished items. Emit is called from one goroutine at a
// time (a pipeline worker); an Emit error aborts the run (a broken sink
// must stop the stream, not silently drop results). A sink with a
// Flush() method is flushed whenever the run's window drains (after an
// Emit that left no admitted item unemitted) and, while it does not,
// once every item admitted when the oldest unflushed item was emitted
// has been emitted too.
// Close is called exactly once after the last Emit of a successful run —
// sinks that assemble an aggregate document write it there.
type Sink interface {
	Emit(it *Item) error
	Close() error
}

// Config tunes one pipeline run.
type Config struct {
	// Workers is the classify+extract concurrency (default GOMAXPROCS).
	Workers int
	// Buffer is how many pages, besides one per worker, may be admitted
	// and not yet emitted (default 16× Workers): sources are only drained
	// as fast as the slowest downstream stage. A deep window keeps every
	// worker busy behind a slow head page. Large pages narrow it: beyond
	// Workers+1 pages, which are always admitted, the admitted pages hold
	// at most 16 MiB of source.
	Buffer int
	// Classifier routes pages to repositories; nil passes pages through
	// with Repo "".
	Classifier Classifier
	// Extractor extracts routed pages; nil copies pages to the sink
	// unextracted (classification errors, when a Classifier is set, still
	// mark items failed).
	Extractor Extractor
	// Telemetry, when non-nil, records per-stage latency histograms,
	// in-flight gauges and error counters for this run. The same
	// Telemetry may back many concurrent runs (the daemon shares one
	// across /ingest and /extract/batch traffic).
	Telemetry *Telemetry
	// OnPanic, when non-nil, observes every recovered stage panic. The
	// panicking page's item still fails with a *PageError wrapping a
	// *resilient.PanicError — a poisoned page must fail itself, never
	// the run. A panic in the sink ("sink" stage) fails the run, as a
	// sink error does.
	OnPanic func(stage string, pe *resilient.PanicError)
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) buffer() int {
	if c.Buffer > 0 {
		return c.Buffer
	}
	return 16 * c.workers()
}

// windowBytes bounds the source bytes of the pages a run holds admitted
// and unemitted, beyond the Workers+1 pages it always admits.
const windowBytes = 16 << 20

// Stats summarizes one pipeline run.
type Stats struct {
	// Pages is the number of items emitted (including failed ones).
	Pages int `json:"pages"`
	// Routed counts pages per repository they were classified to.
	Routed map[string]int `json:"routed,omitempty"`
	// Unrouted counts pages no repository signature claimed.
	Unrouted int `json:"unrouted,omitempty"`
	// PageErrors counts items with any page-level error (including
	// unrouted).
	PageErrors int `json:"pageErrors,omitempty"`
	// Extracted counts pages that produced a record.
	Extracted int `json:"extracted,omitempty"`
	// Failures totals the §7 extraction failures across all pages.
	Failures int `json:"failures,omitempty"`
}

func (s *Stats) observe(it *Item) {
	s.Pages++
	if it.Err != nil {
		s.PageErrors++
		if errors.Is(it.Err, ErrUnrouted) {
			s.Unrouted++
		}
		return
	}
	if it.Repo != "" {
		if s.Routed == nil {
			s.Routed = map[string]int{}
		}
		s.Routed[it.Repo]++
	}
	if it.Element != nil {
		s.Extracted++
	}
	s.Failures += len(it.Failures)
}

// Run drives one pipeline: pages stream from src through classification
// and extraction into sink, at most Workers extractions in flight, items
// emitted in source order. Page-level problems travel as items with Err
// set; Run returns a non-nil error only when the run itself broke (source
// failure, sink failure, context cancelled). Sink.Close runs only when
// the run succeeded — a failed run must not finalize sink artifacts.
//
// Backpressure: the source is pulled only while fewer than
// Buffer+Workers items are awaiting emission and, beyond Workers+1 of
// them, only while their pages' source stays within 16 MiB; the sink is
// fed in order — so a slow sink (an HTTP client reading results)
// throttles the source (a crawl, a request body) through a window
// bounded in pages and in bytes.
//
// Emission: there is no emitter goroutine. The worker that finishes the
// window's head emits it and every consecutive finished item after it.
// It calls the sink's Flush method, if it has one, when a line is out
// unflushed and either the window is empty (no admitted item is left to
// emit) or every item admitted when that line went out has been emitted;
// otherwise it leaves the flush to whichever worker emits later. Sink
// calls therefore run on worker goroutines, one at a time; a panicking
// Emit or Flush is recovered, reported through OnPanic("sink", …) and
// fails the run.
func Run(ctx context.Context, cfg Config, src Source, sink Sink) (Stats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// space holds the tokens of the items admitted and not yet emitted,
	// at least one per item. The window admits Buffer items besides one
	// per worker, so the source runs at most that far (plus the page it
	// reads ahead) past the sink, and work, as deep as the window, never
	// blocks it. A page takes one token per n-th of windowBytes of its
	// source, at most n/(Workers+1): Workers+1 pages always fit, and
	// more only while their source fits in windowBytes.
	n := cfg.buffer() + cfg.workers()
	work := make(chan *Item, n)
	w := &window{ctx: ctx, cfg: cfg, sink: sink, cancel: cancel,
		space: make(chan struct{}, n), ring: make([]*Item, n), sinkStats: cfg.Telemetry.Sink(),
		unit: max(windowBytes/n, 1), maxTokens: n / (cfg.workers() + 1)}
	w.flusher, _ = sink.(interface{ Flush() })

	var srcErr error
	go func() {
		defer close(work)
		srcStats := cfg.Telemetry.Source()
		for seq := 0; ; seq++ {
			t0 := srcStats.Start()
			page, err := src.Next(ctx)
			srcStats.Done(t0, err != nil && err != io.EOF)
			it := &Item{Seq: seq, Page: page}
			var pe *PageError
			switch {
			case err == io.EOF:
				return
			case errors.As(err, &pe):
				it.Err = pe
				if page == nil {
					it.Page = &core.Page{URI: pe.URI}
				}
			case err != nil:
				// An error after the run was already cancelled (sink
				// failure, caller cancel) is shutdown noise, not the
				// run's cause.
				if ctx.Err() == nil {
					srcErr = err
				}
				cancel()
				return
			}
			// The page read ahead waits for window space here.
			it.tokens = w.weight(it.Page)
			for range it.tokens {
				select {
				case w.space <- struct{}{}:
				case <-ctx.Done():
					return
				}
			}
			w.admitted.Store(int64(seq + 1))
			work <- it
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < cfg.workers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				if it.Err == nil { // an input error skips the worker stage
					process(ctx, cfg, it)
				}
				w.finish(it)
			}
		}()
	}
	wg.Wait()

	// Close — and thereby finalize the sink's artifacts (manifest,
	// aggregate document) — only when the run succeeded: an aborted
	// crawl must not leave a valid-looking half-empty pages directory
	// behind. None of the sinks hold OS resources of their own; callers
	// that opened files close them regardless of the run's outcome.
	switch {
	case srcErr != nil:
		return w.stats, fmt.Errorf("pipeline: source: %w", srcErr)
	case w.err != nil:
		return w.stats, w.err
	case ctx.Err() != nil:
		return w.stats, ctx.Err()
	}
	if err := sink.Close(); err != nil {
		return w.stats, fmt.Errorf("pipeline: sink close: %w", err)
	}
	return w.stats, nil
}

// window is a run's in-order emission state: a ring of finished items
// indexed by Seq, and the emitting role that the worker finishing the
// head takes. The fields after emitting are touched only by the holder
// of that role.
type window struct {
	mu       sync.Mutex
	ring     []*Item // finished, unemitted items; slot Seq % len(ring)
	head     int     // Seq of the next item to emit
	emitting bool
	// dirty is set from the first line emitted after a flush until the
	// next flush; flushAt is one past the last item admitted when that
	// line went out.
	dirty   bool
	flushAt int
	// admitted is one past the Seq of the last admitted item.
	admitted atomic.Int64

	ctx       context.Context
	cfg       Config
	sink      Sink
	flusher   interface{ Flush() }
	cancel    context.CancelFunc
	space     chan struct{}
	unit      int // source bytes per space token
	maxTokens int // the most tokens one item takes
	sinkStats *StageStats
	stats     Stats
	err       error // the first sink failure
}

// finish files a processed item into the ring. If it is the head and no
// worker is emitting, the caller takes the emitting role: it emits every
// consecutive finished item and lets go of the role once the head is
// unfinished. It flushes first, when a line is out unflushed, if every
// item admitted when that line went out has now been emitted, or if the
// window has drained (every admitted, unemitted item holds a space
// token, so an empty space channel means the source has nothing in
// flight).
func (w *window) finish(it *Item) {
	w.mu.Lock()
	w.ring[it.Seq%len(w.ring)] = it
	if w.emitting || it.Seq != w.head {
		w.mu.Unlock()
		return
	}
	w.emitting = true
	for {
		next := w.ring[w.head%len(w.ring)]
		flush := w.dirty && (w.head >= w.flushAt || next == nil && len(w.space) == 0)
		switch {
		case flush:
			w.dirty = false
		case next != nil:
			w.ring[w.head%len(w.ring)] = nil
			if !w.dirty && w.flusher != nil {
				w.dirty, w.flushAt = true, int(w.admitted.Load())
			}
			w.head++
		default:
			w.emitting = false
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
		if flush {
			w.fail(safeFlush(w.cfg, w.flusher))
		} else {
			w.emit(next)
			for range next.tokens {
				<-w.space
			}
		}
		w.mu.Lock()
	}
}

// weight is how many space tokens page takes: one per unit of a lazy
// page's source, at least one and at most maxTokens. A page without
// source weighs one.
func (w *window) weight(page *core.Page) int {
	if page == nil {
		return 1
	}
	src, lazy := page.Source()
	if !lazy {
		return 1
	}
	return min(max((len(src)+w.unit-1)/w.unit, 1), w.maxTokens)
}

// emit counts one item and hands it to the sink, unless the run has
// already failed or been cancelled.
func (w *window) emit(it *Item) {
	w.stats.observe(it)
	if w.err == nil && w.ctx.Err() == nil {
		t0 := w.sinkStats.Start()
		err := safeEmit(w.cfg, w.sink, it)
		w.sinkStats.Done(t0, err != nil)
		w.fail(err)
	}
}

// fail records the run's first sink failure and cancels the run.
func (w *window) fail(err error) {
	if err != nil && w.err == nil {
		w.err = fmt.Errorf("pipeline: sink: %w", err)
		w.cancel()
	}
}

// process runs classify + extract for one item, in a worker goroutine.
func process(ctx context.Context, cfg Config, it *Item) {
	if cfg.Classifier != nil {
		cs := cfg.Telemetry.Classify()
		t0 := cs.Start()
		repo, score, err := safeClassify(cfg, it.Page)
		cs.Done(t0, err != nil)
		if err != nil {
			it.Err = pageFail(it, err)
			return
		}
		it.Repo, it.Score = repo, score
	}
	if cfg.Extractor == nil {
		return
	}
	es := cfg.Telemetry.Extract()
	t0 := es.Start()
	el, values, fails, err := safeExtract(ctx, cfg, it.Repo, it.Page)
	es.Done(t0, err != nil)
	if err != nil {
		it.Err = pageFail(it, err)
		return
	}
	it.Element, it.Values, it.Failures = el, values, fails
}

// pageFail wraps a recovered stage panic as a *PageError naming the
// page; ordinary stage errors pass through unchanged (their text is
// API surface — ErrUnrouted, extractor refusals).
func pageFail(it *Item, err error) error {
	var pe *resilient.PanicError
	if errors.As(err, &pe) {
		uri := ""
		if it.Page != nil {
			uri = it.Page.URI
		}
		return &PageError{URI: uri, Err: err}
	}
	return err
}

// safeClassify quarantines a classifier panic into an error.
func safeClassify(cfg Config, p *core.Page) (repo string, score float64, err error) {
	defer recoverStage(cfg, "classify", &err)
	return cfg.Classifier.Classify(p)
}

// safeExtract quarantines an extractor panic into an error.
func safeExtract(ctx context.Context, cfg Config, repo string, p *core.Page) (el *extract.Element, values map[string][]string, fails []extract.Failure, err error) {
	defer recoverStage(cfg, "extract", &err)
	return cfg.Extractor.Extract(ctx, repo, p)
}

// safeEmit quarantines a sink panic into an error. Emit runs on a
// pipeline worker, where no caller's recover stands behind it.
func safeEmit(cfg Config, sink Sink, it *Item) (err error) {
	defer recoverStage(cfg, "sink", &err)
	return sink.Emit(it)
}

// safeFlush quarantines a panic in the sink's Flush into an error.
func safeFlush(cfg Config, f interface{ Flush() }) (err error) {
	defer recoverStage(cfg, "sink", &err)
	f.Flush()
	return nil
}

// recoverStage converts a stage panic into *err and reports it.
func recoverStage(cfg Config, stage string, err *error) {
	if v := recover(); v != nil {
		pe := &resilient.PanicError{Val: v, Stack: debug.Stack()}
		*err = pe
		if cfg.OnPanic != nil {
			cfg.OnPanic(stage, pe)
		}
	}
}
