package pipeline

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/dom"
	"repro/internal/extract"
)

// flusher is the subset of http.Flusher the streaming sinks care about:
// pushing one finished result to the client before the next is ready.
type flusher interface{ Flush() }

// ---------------------------------------------------------------------------
// Raw-page sinks (no extraction stage).

// PagesDirSink writes raw pages as a pages directory (page%03d.html +
// pages.json) — the crawl CLI's output, consumable by clusterpages,
// retrozilla and extract.
type PagesDirSink struct {
	dir string
	man *Manifest
	n   int
}

// NewPagesDirSink creates dir (if needed) and returns the sink.
func NewPagesDirSink(dir, clusterName string) (*PagesDirSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &PagesDirSink{dir: dir, man: &Manifest{Cluster: clusterName, Pages: map[string]string{}}}, nil
}

// Emit implements Sink. Items with page-level errors are skipped (a
// failed fetch has no page to save).
func (s *PagesDirSink) Emit(it *Item) error {
	if it.Err != nil || it.Page == nil || it.Page.Document() == nil {
		return nil
	}
	file := fmt.Sprintf("page%03d.html", s.n)
	s.n++
	if err := os.WriteFile(filepath.Join(s.dir, file), []byte(dom.Render(it.Page.Doc)), 0o644); err != nil {
		return err
	}
	s.man.Pages[it.Page.URI] = file
	return nil
}

// Close writes the manifest.
func (s *PagesDirSink) Close() error { return s.man.Write(s.dir) }

// PageCount reports how many pages were written.
func (s *PagesDirSink) PageCount() int { return s.n }

// PageNDJSONSink writes raw pages as NDJSON {"uri","html"} lines — the
// wire format POST /ingest consumes, so `crawl -ndjson | curl
// --data-binary @- .../ingest` migrates a live site without touching
// disk.
type PageNDJSONSink struct {
	w   io.Writer
	enc *json.Encoder
}

// NewPageNDJSONSink writes page lines to w.
func NewPageNDJSONSink(w io.Writer) *PageNDJSONSink {
	return &PageNDJSONSink{w: w, enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *PageNDJSONSink) Emit(it *Item) error {
	if it.Err != nil || it.Page == nil || it.Page.Document() == nil {
		return nil
	}
	if err := s.enc.Encode(PageLine{URI: it.Page.URI, HTML: dom.Render(it.Page.Doc)}); err != nil {
		return err
	}
	if f, ok := s.w.(flusher); ok {
		f.Flush()
	}
	return nil
}

// Close implements Sink.
func (s *PageNDJSONSink) Close() error { return nil }

// ---------------------------------------------------------------------------
// Extraction-result sinks.

// ResultLine is one NDJSON output line of an extraction run: the wire
// shape streamed by POST /ingest and written by extract -format ndjson.
type ResultLine struct {
	URI      string   `json:"uri"`
	Repo     string   `json:"repo,omitempty"`
	Score    float64  `json:"score,omitempty"`
	Record   any      `json:"record,omitempty"`
	Failures []string `json:"failures,omitempty"`
	Error    string   `json:"error,omitempty"`
	// Trace is the request trace ID on lines streamed by POST /ingest —
	// the same ID the X-Trace-Id response header and the daemon's
	// structured logs carry, so one page's NDJSON line, request log and
	// (if it fed an induction job) job record correlate.
	Trace string `json:"trace,omitempty"`
}

// MakeResultLine renders one item as its NDJSON wire line.
func MakeResultLine(it *Item) ResultLine {
	line := ResultLine{Repo: it.Repo, Score: it.Score}
	if it.Page != nil {
		line.URI = it.Page.URI
	}
	if it.Err != nil {
		line.Error = it.Err.Error()
		return line
	}
	if it.Element != nil {
		line.Record = it.Element.JSONValue()
	}
	for _, f := range it.Failures {
		line.Failures = append(line.Failures, f.String())
	}
	return line
}

// NDJSONSink streams extraction results as NDJSON, one line per page,
// flushing after every line when the writer supports it — the sink
// behind POST /ingest's streamed response. Lines are encoded by
// AppendResultLine into a reused buffer and written with one Write each.
type NDJSONSink struct {
	w io.Writer
	// Trace, when set, is stamped on every line (ResultLine.Trace).
	Trace string
	buf   []byte
}

// NewNDJSONSink writes result lines to w.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{w: w}
}

// Emit implements Sink.
func (s *NDJSONSink) Emit(it *Item) error {
	if math.IsNaN(it.Score) || math.IsInf(it.Score, 0) {
		// encoding/json refuses non-finite floats; report its error.
		_, err := json.Marshal(it.Score)
		return err
	}
	s.buf = AppendResultLine(s.buf[:0], it, s.Trace)
	_, err := s.w.Write(s.buf)
	if cap(s.buf) > maxRetainedScratch {
		s.buf = nil
	}
	if err != nil {
		return err
	}
	if f, ok := s.w.(flusher); ok {
		f.Flush()
	}
	return nil
}

// Close implements Sink.
func (s *NDJSONSink) Close() error { return nil }

// XMLDirSink writes one XML document per extracted page
// (page%03d.xml), mirroring the input layout of a pages directory — the
// file-per-page migration target.
type XMLDirSink struct {
	dir string
	n   int
}

// NewXMLDirSink creates dir (if needed) and returns the sink.
func NewXMLDirSink(dir string) (*XMLDirSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &XMLDirSink{dir: dir}, nil
}

// Emit implements Sink. Failed or unextracted items are skipped.
func (s *XMLDirSink) Emit(it *Item) error {
	if it.Err != nil || it.Element == nil {
		return nil
	}
	file := fmt.Sprintf("page%03d.xml", s.n)
	s.n++
	f, err := os.Create(filepath.Join(s.dir, file))
	if err != nil {
		return err
	}
	if err := it.Element.WriteXML(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Close implements Sink.
func (s *XMLDirSink) Close() error { return nil }

// PageCount reports how many page documents were written.
func (s *XMLDirSink) PageCount() int { return s.n }

// AggregateXML assembles the paper's whole-cluster XML document: every
// extracted page element under one root (Figure 5), optionally grouped
// into one sub-root per repository when a routed run mixes clusters.
// Aggregation inherently buffers the output document; use XMLDirSink or
// NDJSONSink for runs that must stay flat in memory.
type AggregateXML struct {
	w    io.Writer
	root *extract.Element
	// groups maps repo name → sub-root, when grouping.
	groupByRepo bool
	groups      map[string]*extract.Element
	order       []string
}

// NewAggregateXML aggregates page elements under a root element named
// rootName, written to w on Close. When groupByRepo is set, pages are
// grouped under one child element per repository (first-seen order) —
// the multi-cluster site migration document.
func NewAggregateXML(w io.Writer, rootName string, groupByRepo bool) *AggregateXML {
	return &AggregateXML{
		w:           w,
		root:        extract.NewElement(rootName),
		groupByRepo: groupByRepo,
		groups:      map[string]*extract.Element{},
	}
}

// Emit implements Sink. Failed items are skipped (they are reported via
// Stats and, in CLIs, on stderr).
func (s *AggregateXML) Emit(it *Item) error {
	if it.Err != nil || it.Element == nil {
		return nil
	}
	if !s.groupByRepo || it.Repo == "" {
		s.root.Add(it.Element)
		return nil
	}
	g, ok := s.groups[it.Repo]
	if !ok {
		g = extract.NewElement(it.Repo)
		s.groups[it.Repo] = g
		s.order = append(s.order, it.Repo)
	}
	g.Add(it.Element)
	return nil
}

// Document returns the assembled document (valid after the run).
func (s *AggregateXML) Document() *extract.Element {
	if s.groupByRepo {
		for _, name := range s.order {
			s.root.Add(s.groups[name])
		}
		s.order = nil
	}
	return s.root
}

// Close writes the document.
func (s *AggregateXML) Close() error {
	doc := s.Document()
	if s.w == nil {
		return nil
	}
	return doc.WriteXML(s.w)
}

// ---------------------------------------------------------------------------
// Composition helpers.

// FuncSink adapts a function to Sink (Close is a no-op).
type FuncSink func(it *Item) error

// Emit implements Sink.
func (f FuncSink) Emit(it *Item) error { return f(it) }

// Close implements Sink.
func (f FuncSink) Close() error { return nil }

// MultiSink fans every item out to several sinks; the first error wins.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(it *Item) error {
	for _, s := range m {
		if err := s.Emit(it); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every sink, returning the first error.
func (m MultiSink) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
