package pipeline

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
)

// PageParser turns one raw page into a parsed core.Page. The default
// parser is core.NewPage with a line-derived URI for anonymous pages;
// the extractd service plugs in its page-cache-aware parser instead.
type PageParser func(uri, html string) *core.Page

// ---------------------------------------------------------------------------
// In-memory source.

// PageSource streams an in-memory page slice — the source for tests,
// benchmarks and callers that already gathered their pages.
type PageSource struct {
	pages []*core.Page
	next  int
}

// NewPageSource wraps pages in a Source.
func NewPageSource(pages []*core.Page) *PageSource {
	return &PageSource{pages: pages}
}

// Next implements Source.
func (s *PageSource) Next(ctx context.Context) (*core.Page, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.next >= len(s.pages) {
		return nil, io.EOF
	}
	p := s.pages[s.next]
	s.next++
	return p, nil
}

// ---------------------------------------------------------------------------
// Manifest (pages directory) source.

// Manifest is the pages.json index of a pages directory, the on-disk
// interchange format shared by crawl, sitegen, clusterpages and extract.
type Manifest struct {
	Cluster string `json:"cluster"`
	// Pages maps page URI → HTML file name (relative to the directory).
	Pages map[string]string `json:"pages"`
}

// LoadManifest reads dir/pages.json.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, "pages.json"))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("pipeline: %s/pages.json: %w", dir, err)
	}
	return &m, nil
}

// Write saves the manifest as dir/pages.json.
func (m *Manifest) Write(dir string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "pages.json"), append(data, '\n'), 0o644)
}

// SortedURIs returns the page URIs ordered by their file names — the
// stable page order every driver uses.
func (m *Manifest) SortedURIs() []string {
	uris := make([]string, 0, len(m.Pages))
	for uri := range m.Pages {
		uris = append(uris, uri)
	}
	sort.Slice(uris, func(i, j int) bool { return m.Pages[uris[i]] < m.Pages[uris[j]] })
	return uris
}

// ManifestSource streams the pages of a pages directory one at a time,
// reading each HTML file only when the pipeline pulls it.
type ManifestSource struct {
	dir   string
	man   *Manifest
	uris  []string
	next  int
	parse PageParser
}

// NewManifestSource opens a pages directory (crawl/sitegen/clusterpages
// output). parse may be nil for the default parser.
func NewManifestSource(dir string, parse PageParser) (*ManifestSource, error) {
	man, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	return &ManifestSource{dir: dir, man: man, uris: man.SortedURIs(), parse: parse}, nil
}

// Manifest exposes the loaded manifest (cluster name, page count).
func (s *ManifestSource) Manifest() *Manifest { return s.man }

// Next implements Source. An unreadable page file is a page-level error;
// the run continues with the remaining pages.
func (s *ManifestSource) Next(ctx context.Context) (*core.Page, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.next >= len(s.uris) {
		return nil, io.EOF
	}
	uri := s.uris[s.next]
	s.next++
	html, err := os.ReadFile(filepath.Join(s.dir, s.man.Pages[uri]))
	if err != nil {
		return nil, &PageError{URI: uri, Err: err}
	}
	if s.parse != nil {
		return s.parse(uri, string(html)), nil
	}
	return core.NewPage(uri, string(html)), nil
}

// ---------------------------------------------------------------------------
// NDJSON source.

// PageLine is one NDJSON input line: a page as shipped to POST /ingest
// and /extract/batch, and as emitted by crawl -ndjson.
type PageLine struct {
	URI  string `json:"uri"`
	HTML string `json:"html"`
}

// NDJSONSource streams pages from NDJSON {"uri","html"} lines. Blank
// lines are skipped but counted, so reported line numbers match the
// physical input; malformed lines and lines exceeding maxLine surface as
// page-level errors carrying the line number.
type NDJSONSource struct {
	sc      *bufio.Scanner
	dec     pageLineDecoder
	line    int
	parse   PageParser
	maxLine int
	dead    bool
}

// NewNDJSONSource reads NDJSON pages from r. maxLine bounds one line in
// bytes (≤ 0: 16 MiB); parse may be nil for the default parser.
func NewNDJSONSource(r io.Reader, maxLine int, parse PageParser) *NDJSONSource {
	if maxLine <= 0 {
		maxLine = 16 << 20
	}
	sc := bufio.NewScanner(r)
	// The scanner's effective cap is max(cap(buf), maxLine), so the
	// initial buffer must not exceed the configured line cap.
	initial := 64 * 1024
	if initial > maxLine {
		initial = maxLine
	}
	sc.Buffer(make([]byte, initial), maxLine)
	return &NDJSONSource{sc: sc, parse: parse, maxLine: maxLine}
}

// Next implements Source.
func (s *NDJSONSource) Next(ctx context.Context) (*core.Page, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.dead {
		return nil, io.EOF
	}
	for s.sc.Scan() {
		s.line++
		raw := bytes.TrimSpace(s.sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var in PageLine
		if err := s.dec.decode(raw, &in); err != nil {
			return nil, &PageError{Line: s.line, Err: err}
		}
		uri := in.URI
		if uri == "" {
			uri = fmt.Sprintf("line:%d", s.line)
		}
		if s.parse != nil {
			return s.parse(in.URI, in.HTML), nil
		}
		return core.NewPage(uri, in.HTML), nil
	}
	if err := s.sc.Err(); err != nil {
		// A line over the cap (or a broken reader) ends the stream: the
		// scanner cannot resynchronize, so trailing data would be
		// misattributed. The error is page-level (the caller sees it in
		// the result stream) and the source then reports EOF.
		s.dead = true
		return nil, &PageError{Line: s.line + 1, Err: err}
	}
	return nil, io.EOF
}
