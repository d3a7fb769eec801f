//go:build !race

// The race detector instruments allocations, so this file is left out
// of -race builds.

package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// discardWriter is an http.ResponseWriter that keeps nothing but a line
// count, so the allocations measured are the server's alone.
type discardWriter struct {
	header http.Header
	lines  int
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Flush()              {}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// TestIngestAllocsPerPage pins the heap allocations per page of the
// served /ingest path: a routed movies+books NDJSON body driven through
// Server.Handler() — decode, route, stream extract, drift observe,
// metrics, result encode — with an in-memory request and a discarding
// ResponseWriter, so no client allocates inside the measurement.
func TestIngestAllocsPerPage(t *testing.T) {
	movies := corpus.GenerateMovies(corpus.DefaultMovieProfile(81, 24))
	books := corpus.GenerateBooks(corpus.DefaultBookProfile(82, 24))
	srv := NewServer(2, 0, nil)
	defer srv.Close()
	srv.Log = obs.NopLogger()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, cl := range []*corpus.Cluster{movies, books} {
		if _, err := srv.LoadRepo(cl.Name, buildRepoWithSignature(t, cl)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range movies.Pages {
		for _, cl := range []*corpus.Cluster{movies, books} {
			p := cl.Pages[i]
			if err := enc.Encode(pipeline.PageLine{URI: p.URI, HTML: dom.Render(p.Doc)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pages := 2 * len(movies.Pages)

	h := srv.Handler()
	rd := bytes.NewReader(body.Bytes())
	req := httptest.NewRequest(http.MethodPost, "/ingest", io.NopCloser(rd))
	w := &discardWriter{header: http.Header{}}
	post := func() {
		rd.Reset(body.Bytes())
		w.lines = 0
		h.ServeHTTP(w, req)
	}

	// Check the exchange once on a recording writer: every page routed
	// and extracted.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body.Bytes())))
	lines := bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte{'\n'}), []byte{'\n'})
	var sum ingestSummary
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
		t.Fatalf("summary line: %v", err)
	}
	if len(lines) != pages+1 || sum.Extracted != pages || sum.Unrouted != 0 || sum.Error != "" {
		t.Fatalf("ingest = %d lines, summary %+v; want %d routed and extracted pages", len(lines), sum, pages)
	}

	for i := 0; i < 3; i++ {
		post()
	}
	perPage := testing.AllocsPerRun(10, post) / float64(pages)
	if w.lines != pages+1 {
		t.Fatalf("measured exchange wrote %d lines, want %d", w.lines, pages+1)
	}
	if hits := srv.Metrics.Snapshot().PageCacheHits; hits != 0 {
		t.Errorf("%d page-cache hits: the measured path must parse nothing twice", hits)
	}
	t.Logf("/ingest: %.1f allocs/page", perPage)
	// Measured at 23.1 allocs/page (go1.24, -cpu 1, 2 and 4); the
	// budget leaves room for sync.Pool refills after a GC, not for a new
	// per-page allocation.
	const budget = 24
	if perPage > budget {
		t.Errorf("/ingest allocates %.1f/page, budget %d", perPage, budget)
	}
}

// TestExtractAllocsPerRequest pins the heap allocations of one served
// /extract request: a movies page posted with ?repo= and an escaped ?uri= through
// Server.Handler() — body read, query parses, stream extract, drift
// observe, metrics, request log, envelope encode — with an in-memory
// request and a discarding ResponseWriter.
func TestExtractAllocsPerRequest(t *testing.T) {
	movies := corpus.GenerateMovies(corpus.DefaultMovieProfile(81, 24))
	srv := NewServer(2, 0, nil)
	defer srv.Close()
	srv.Log = obs.NopLogger()
	if _, err := srv.LoadRepo(movies.Name, buildRepoWithSignature(t, movies)); err != nil {
		t.Fatal(err)
	}
	html := []byte(dom.Render(movies.Pages[0].Doc))
	target := "/extract?repo=" + movies.Name + "&uri=http%3A%2F%2Fx%2Fp1"
	h := srv.Handler()
	rd := bytes.NewReader(html)
	req := httptest.NewRequest(http.MethodPost, target, io.NopCloser(rd))
	w := &discardWriter{header: http.Header{}}
	post := func() {
		rd.Reset(html)
		w.lines = 0
		h.ServeHTTP(w, req)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(html)))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"uri": "http://x/p1"`) {
		t.Fatalf("/extract = %d %s", rec.Code, rec.Body.String())
	}

	for i := 0; i < 3; i++ {
		post()
	}
	allocs := testing.AllocsPerRun(50, post)
	if w.lines == 0 {
		t.Fatal("measured request wrote no response")
	}
	t.Logf("/extract: %.1f allocs/request", allocs)
	// Measured at 37.0 allocs/request (go1.24, -cpu 1, 2 and 4); the
	// budget leaves one for a pool refill after a GC.
	const budget = 38
	if allocs > budget {
		t.Errorf("/extract allocates %.1f/request, budget %d", allocs, budget)
	}
}
