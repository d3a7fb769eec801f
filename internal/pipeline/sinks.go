package pipeline

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/dom"
	"repro/internal/extract"
)

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

// AppendPageLine appends a fetched page's {"uri","html"} line, as
// json.Encoder writes it — the format POST /ingest consumes, so `crawl
// -ndjson | curl --data-binary @- .../ingest` migrates a live site
// without touching disk. A failed fetch has no page and appends nothing.
func AppendPageLine(dst []byte, it *Item) ([]byte, error) {
	if it.Err != nil || it.Page == nil || it.Page.Document() == nil {
		return dst, nil
	}
	line, err := json.Marshal(PageLine{URI: it.Page.URI, HTML: dom.Render(it.Page.Doc)})
	if err != nil {
		return dst, err
	}
	return append(append(dst, line...), '\n'), nil
}

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

// NDJSONSink is the one NDJSON line writer, behind POST /ingest, POST
// /extract/batch, crawl -ndjson and extract -format ndjson. Its appender
// renders each item into a reused buffer and Emit writes the line with
// one Write; an item the appender appended nothing for is skipped. Emit
// does not flush: Run calls Flush once per window of items (see Sink),
// and Flush passes through to the writer when it can flush and a line
// went out since the last Flush. A sink wrapped in another (MultiSink)
// is not flushed.
type NDJSONSink struct {
	w       io.Writer
	line    func(dst []byte, it *Item) ([]byte, error)
	buf     []byte
	wrote   bool
	pending bool // a line was written since the last Flush
}

// NewNDJSONSink writes the lines line appends to w — AppendResultLine,
// AppendPageLine or an endpoint's own line shape.
func NewNDJSONSink(w io.Writer, line func(dst []byte, it *Item) ([]byte, error)) *NDJSONSink {
	return &NDJSONSink{w: w, line: line}
}

// Emit implements Sink.
func (s *NDJSONSink) Emit(it *Item) error {
	buf, err := s.line(s.buf[:0], it)
	if err != nil || len(buf) == 0 {
		return err
	}
	s.wrote, s.pending = true, true
	_, err = s.w.Write(buf)
	if cap(buf) > maxRetainedScratch {
		buf = nil
	}
	s.buf = buf
	return err
}

// Flush flushes the lines written since the last Flush, when the writer
// has a Flush method (an http.ResponseWriter does).
func (s *NDJSONSink) Flush() {
	if !s.pending {
		return
	}
	s.pending = false
	if f, ok := s.w.(interface{ Flush() }); ok {
		f.Flush()
	}
}

// Wrote reports whether a line went out (and with it a response status).
func (s *NDJSONSink) Wrote() bool { return s.wrote }

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
