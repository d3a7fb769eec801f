package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/pipeline"
	"repro/internal/rule"
	"repro/internal/webfetch"
)

// buildRepoWithSignature induces rules for a cluster and attaches the
// cluster signature, the way the retrozilla CLI records repositories.
func buildRepoWithSignature(t testing.TB, cl *corpus.Cluster) *rule.Repository {
	t.Helper()
	sample, _ := cl.RepresentativeSplit(10)
	builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
		t.Fatal(err)
	}
	sig := cluster.NewSignature()
	for _, p := range cl.Pages {
		sig.Add(cluster.Fingerprint(cluster.PageInfo{URI: p.URI, Doc: p.Doc}))
	}
	repo.Signature = sig
	return repo
}

// expectedRepoFor classifies a crawled page path to its ground-truth
// repository on the webfetch.DefaultSite corpus layout.
func expectedRepoFor(path string) (repo string, isCorpus bool) {
	switch {
	case strings.HasPrefix(path, "/title/"):
		return "imdb-movies", true
	case strings.HasPrefix(path, "/item/"):
		return "books", true
	case strings.HasPrefix(path, "/q/"):
		return "", true // stocks: no repository loaded → must go unrouted
	default:
		return "", false // site index etc.
	}
}

// TestIngestStreamsWholeSiteE2E is the PR's acceptance path: a mixed
// multi-cluster site (movies + books + stocks) is crawled live, the page
// stream is POSTed to /ingest with NO repo parameter, and every page is
// auto-routed by cluster signature. The exchange runs in strict
// lockstep — page N+1 is only uploaded after the result for page N has
// been read back — which fails (deadlocks → test timeout) unless the
// server streams one NDJSON result per page without buffering the site
// on either side.
func TestIngestStreamsWholeSiteE2E(t *testing.T) {
	// The live mixed site.
	siteHandler, clusters, err := webfetch.DefaultSite(71, 16)
	if err != nil {
		t.Fatal(err)
	}
	siteSrv := httptest.NewServer(siteHandler)
	t.Cleanup(siteSrv.Close)

	// Repositories for two of the three clusters, loaded over the API so
	// signatures prove they survive the JSON wire format.
	srv, ts := newTestServer(t)
	for _, cl := range clusters {
		if cl.Name == "imdb-movies" || cl.Name == "books" {
			postJSONRepo(t, ts.URL, buildRepoWithSignature(t, cl), "")
		}
	}
	if got := srv.Router.Len(); got != 2 {
		t.Fatalf("router has %d signatures, want 2", got)
	}

	// Crawl the live site into a streaming page sequence.
	crawl, err := (&webfetch.Fetcher{MaxPages: 100}).Start(siteSrv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	var pages []*core.Page
	for {
		p, err := crawl.Next(context.Background())
		if err == io.EOF {
			break
		}
		var pageErr *pipeline.PageError
		if errors.As(err, &pageErr) {
			// The corpus site has a few dangling links; the crawler now
			// reports them per page instead of silently skipping.
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	if len(pages) < 3*16 {
		t.Fatalf("crawl gathered %d pages, want the whole site (>= 48)", len(pages))
	}

	// Lockstep ingest: write page i+1 only after reading result i.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()

	writePage := func(p *core.Page) {
		line, err := json.Marshal(pipeline.PageLine{URI: p.URI, HTML: dom.Render(p.Doc)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pw.Write(append(line, '\n')); err != nil {
			t.Fatalf("writing page %s: %v", p.URI, err)
		}
	}
	writePage(pages[0])
	var resp *http.Response
	select {
	case resp = <-respCh:
	case err := <-errCh:
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("/ingest: %d: %s", resp.StatusCode, body)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	var results []pipeline.ResultLine
	for i := 0; i < len(pages); i++ {
		if !sc.Scan() {
			t.Fatalf("response ended after %d results (want %d): %v", i, len(pages), sc.Err())
		}
		var res pipeline.ResultLine
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("result %d: %v: %s", i, err, sc.Text())
		}
		results = append(results, res)
		if i+1 < len(pages) {
			writePage(pages[i+1]) // strict lockstep
		} else {
			pw.Close()
		}
	}

	// Trailing summary line.
	if !sc.Scan() {
		t.Fatal("no summary line")
	}
	var sum struct {
		Done bool `json:"done"`
		pipeline.Stats
		Error string `json:"error,omitempty"`
	}
	if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
		t.Fatalf("summary: %v: %s", err, sc.Text())
	}
	if !sum.Done || sum.Error != "" || sum.Pages != len(pages) {
		t.Errorf("summary = %+v (over %d pages)", sum, len(pages))
	}

	// Routing accuracy on the corpus ground truth (site index excluded).
	var corpusPages, correct int
	for i, res := range results {
		path := strings.TrimPrefix(pages[i].URI, siteSrv.URL)
		want, isCorpus := expectedRepoFor(path)
		if !isCorpus {
			continue
		}
		corpusPages++
		switch {
		case want == "" && res.Repo == "" && strings.Contains(res.Error, "unrouted"):
			correct++ // stocks page correctly rejected
		case want != "" && res.Repo == want && res.Error == "":
			if res.Record == nil {
				t.Errorf("page %s routed to %q but has no record", pages[i].URI, res.Repo)
			}
			correct++
		default:
			t.Logf("page %s: repo=%q err=%q want=%q", pages[i].URI, res.Repo, res.Error, want)
		}
	}
	if corpusPages < 48 {
		t.Fatalf("only %d corpus pages scored", corpusPages)
	}
	if acc := float64(correct) / float64(corpusPages); acc < 0.95 {
		t.Errorf("routing accuracy %.3f (%d/%d), want >= 0.95", acc, correct, corpusPages)
	}

	// The router traffic shows up in /metrics.
	snap := srv.Metrics.Snapshot()
	if snap.RouterHits == 0 || snap.RouterUnrouted == 0 {
		t.Errorf("router metrics hits=%d unrouted=%d, want both > 0",
			snap.RouterHits, snap.RouterUnrouted)
	}
}

// TestIngestExplicitRepoPinsRouting: ?repo= skips the router entirely.
func TestIngestExplicitRepoPinsRouting(t *testing.T) {
	cl, repo := buildMoviesRepo(t, 72, 16)
	srv, ts := newTestServer(t)
	postJSONRepo(t, ts.URL, repo, "movies")

	var in strings.Builder
	enc := json.NewEncoder(&in)
	for _, p := range cl.Pages[:4] {
		enc.Encode(pipeline.PageLine{URI: p.URI, HTML: dom.Render(p.Doc)})
	}
	resp, err := http.Post(ts.URL+"/ingest?repo=movies", "application/x-ndjson",
		strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	n := 0
	for sc.Scan() {
		var res pipeline.ResultLine
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if res.Repo == "movies" && res.Record != nil {
			n++
		}
	}
	if n != 4 {
		t.Errorf("%d extracted results, want 4", n)
	}
	if hits := srv.Metrics.Snapshot().RouterHits; hits != 0 {
		t.Errorf("router consulted %d times despite explicit repo", hits)
	}
}

// TestIngestQuarantinesSinkPanic: result lines are written from
// pipeline workers, outside the handler's recover, so an /ingest whose
// line appender panics must end with the failure on its summary line —
// the panic counted under the "sink" stage — and the server must keep
// serving.
func TestIngestQuarantinesSinkPanic(t *testing.T) {
	cl, repo := buildMoviesRepo(t, 73, 16)
	srv, ts := newTestServer(t)
	postJSONRepo(t, ts.URL, repo, "movies")
	var calls atomic.Int64
	panicky := httptest.NewServer(srv.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ingest(w, r, func(dst []byte, it *pipeline.Item, trace string) ([]byte, error) {
			if calls.Add(1) == 2 {
				panic("appender exploded")
			}
			return pipeline.AppendResultLine(dst, it, trace)
		})
	})))
	defer panicky.Close()

	var in strings.Builder
	enc := json.NewEncoder(&in)
	for _, p := range cl.Pages[:4] {
		enc.Encode(pipeline.PageLine{URI: p.URI, HTML: dom.Render(p.Doc)})
	}
	ingest := func(base string) []string {
		t.Helper()
		resp, err := http.Post(base+"/ingest?repo=movies", "application/x-ndjson", strings.NewReader(in.String()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	}

	lines := ingest(panicky.URL)
	var sum ingestSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || !sum.Done {
		t.Fatalf("last line %q is no summary (%v)", lines[len(lines)-1], err)
	}
	if !strings.Contains(sum.Error, "pipeline: sink") || !strings.Contains(sum.Error, "appender exploded") {
		t.Errorf("summary error = %q, want the sink panic", sum.Error)
	}
	if len(lines) != 2 {
		t.Errorf("%d lines, want the first result and the summary", len(lines))
	}
	if n := srv.Metrics.Snapshot().PanicsRecovered["sink"]; n != 1 {
		t.Errorf("panics recovered at the sink = %d, want 1", n)
	}

	lines, sum = ingest(ts.URL), ingestSummary{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || sum.Extracted != 4 || sum.Error != "" {
		t.Fatalf("ingest after the panic: summary %q (%v), want 4 extracted", lines[len(lines)-1], err)
	}
}

// TestIngestUnknownRepo: a bad explicit repo fails before the stream
// starts, as a regular HTTP error with a JSON body, counted against the
// endpoint.
func TestIngestUnknownRepo(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/ingest?repo=nope", "application/x-ndjson",
		strings.NewReader(`{"uri":"x","html":"<p>x</p>"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
	var body struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || !strings.Contains(body.Error, `"nope"`) {
		t.Errorf("body error %q (%v), want the unknown repository named", body.Error, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	if n := srv.Metrics.Snapshot().Errors["ingest"]; n != 1 {
		t.Errorf("ingest errors = %d, want 1", n)
	}
}

// TestIngestOversizedLine: /ingest has no whole-body cap (the stream is
// meant to be unbounded) but each line is bounded like an /extract body;
// an oversized line fails as a page-level result and the summary still
// arrives.
func TestIngestOversizedLine(t *testing.T) {
	_, repo := buildMoviesRepo(t, 73, 8)
	srv, ts := newTestServer(t)
	srv.MaxBody = 2048
	postJSONRepo(t, ts.URL, repo, "movies")

	big := strings.Repeat("y", 8192)
	in := `{"uri":"http://x/big","html":"` + big + `"}` + "\n"
	resp, err := http.Post(ts.URL+"/ingest?repo=movies", "application/x-ndjson", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("%d lines, want error line + summary", len(lines))
	}
	if errMsg, _ := lines[0]["error"].(string); errMsg == "" {
		t.Errorf("first line = %v, want a line error", lines[0])
	}
	if done, _ := lines[1]["done"].(bool); !done {
		t.Errorf("last line = %v, want summary", lines[1])
	}
}

// TestExtractAutoRoute: POST /extract with no repo parameter routes via
// the signature router, and an alien page is a 422 "unrouted".
func TestExtractAutoRoute(t *testing.T) {
	siteClusters := []*corpus.Cluster{
		corpus.GenerateMovies(corpus.DefaultMovieProfile(74, 12)),
		corpus.GenerateBooks(corpus.DefaultBookProfile(75, 12)),
	}
	srv, ts := newTestServer(t)
	for _, cl := range siteClusters {
		postJSONRepo(t, ts.URL, buildRepoWithSignature(t, cl), "")
	}

	for _, cl := range siteClusters {
		p := cl.Pages[len(cl.Pages)-1]
		resp, err := http.Post(ts.URL+"/extract?uri="+p.URI, "text/html",
			strings.NewReader(dom.Render(p.Doc)))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("auto-routed extract: %d: %s", resp.StatusCode, raw)
		}
		var res extractResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if res.Repo != cl.Name {
			t.Errorf("page %s routed to %q, want %q", p.URI, res.Repo, cl.Name)
		}
	}

	// An alien page: 422, counted as unrouted.
	forum := corpus.GenerateForum(corpus.DefaultForumProfile(76, 1))
	resp, err := http.Post(ts.URL+"/extract", "text/html",
		strings.NewReader(dom.Render(forum.Pages[0].Doc)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("alien page: %d: %s, want 422", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "unrouted") {
		t.Errorf("alien page error = %s", raw)
	}
	snap := srv.Metrics.Snapshot()
	if snap.RouterHits != 2 || snap.RouterUnrouted != 1 {
		t.Errorf("router metrics = hits %d unrouted %d misses %d, want 2/1/0",
			snap.RouterHits, snap.RouterUnrouted, snap.RouterMisses)
	}
}

// TestRouterLearnMakesRepoRoutable: with RouterLearn on, explicit-repo
// traffic grows a signature for a repository loaded without one, after
// which no-repo requests route to it.
func TestRouterLearnMakesRepoRoutable(t *testing.T) {
	cl, repo := buildMoviesRepo(t, 77, 16) // no signature attached
	srv, ts := newTestServer(t)
	srv.RouterLearn = true
	postJSONRepo(t, ts.URL, repo, "movies")

	if srv.Router.Len() != 0 {
		t.Fatal("signature present before any traffic")
	}
	for _, p := range cl.Pages[:8] {
		resp, err := http.Post(ts.URL+"/extract?repo=movies&uri="+p.URI, "text/html",
			strings.NewReader(dom.Render(p.Doc)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explicit extract: %d", resp.StatusCode)
		}
	}
	if srv.Router.Len() != 1 {
		t.Fatalf("router has %d signatures after learning traffic, want 1", srv.Router.Len())
	}
	p := cl.Pages[12]
	resp, err := http.Post(ts.URL+"/extract?uri="+p.URI, "text/html",
		strings.NewReader(dom.Render(p.Doc)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("learned route: %d: %s", resp.StatusCode, raw)
	}
	var res extractResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Repo != "movies" {
		t.Errorf("routed to %q", res.Repo)
	}
}

// TestRemoveRepoUnregistersRoute: unloading a repository removes its
// routing signature.
func TestRemoveRepoUnregistersRoute(t *testing.T) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(78, 8))
	srv, ts := newTestServer(t)
	postJSONRepo(t, ts.URL, buildRepoWithSignature(t, cl), "movies")
	if srv.Router.Len() != 1 {
		t.Fatal("signature not registered on load")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/repos?name=movies", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if srv.Router.Len() != 0 {
		t.Error("signature survived repository unload")
	}
}
