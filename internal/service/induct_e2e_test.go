package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/induct"
	"repro/internal/pipeline"
	"repro/internal/textutil"
	"repro/internal/webfetch"
)

// mustGetJSON is getJSON insisting on a 200.
func mustGetJSON(t *testing.T, url string, v any) {
	t.Helper()
	if code := getJSON(t, url, v); code != http.StatusOK {
		t.Fatalf("GET %s: %d", url, code)
	}
}

// postBodyJSON posts v as a JSON body (nil for an empty body) and
// decodes the response.
func postBodyJSON(t *testing.T, url string, v, out any) (int, []byte) {
	t.Helper()
	var body io.Reader = strings.NewReader("")
	if v != nil {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(raw)
	}
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: %v: %s", url, err, raw)
		}
	}
	return resp.StatusCode, raw
}

// ingestPages streams pages through POST /ingest and returns the result
// lines (summary excluded).
func ingestPages(t *testing.T, base string, pages []pipeline.PageLine) []pipeline.ResultLine {
	t.Helper()
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for _, p := range pages {
		if err := enc.Encode(p); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("/ingest: %d: %s", resp.StatusCode, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	var out []pipeline.ResultLine
	for i := 0; i < len(pages); i++ {
		if !sc.Scan() {
			t.Fatalf("response ended after %d results: %v", i, sc.Err())
		}
		var res pipeline.ResultLine
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("result %d: %v: %s", i, err, sc.Text())
		}
		out = append(out, res)
	}
	return out
}

// TestInductionClosedLoopE2E is this PR's acceptance path, the system's
// full loop closed: a three-cluster site where one cluster (stocks) has
// no repository is streamed through /ingest; the unrouted stock pages
// are captured and bucketed; operator examples via POST /induce queue a
// background induction job; the staged result is promoted over the API;
// and a second pass then routes and extracts the previously-unserved
// cluster with 100% accuracy against the corpus ground truth.
func TestInductionClosedLoopE2E(t *testing.T) {
	// The clusters of the stock three-cluster site; pages are streamed
	// straight from them (the HTTP site itself is exercised elsewhere).
	_, clusters, err := webfetch.DefaultSite(91, 16)
	if err != nil {
		t.Fatal(err)
	}
	var stocks *corpus.Cluster
	srv, ts := newTestServer(t)
	eng := srv.EnableInduction(induct.Config{MinPages: 8, Workers: 1})
	t.Cleanup(eng.Close)
	for _, cl := range clusters {
		switch cl.Name {
		case "imdb-movies", "books":
			postJSONRepo(t, ts.URL, buildRepoWithSignature(t, cl), "")
		case "stocks":
			stocks = cl
		}
	}
	if stocks == nil {
		t.Fatal("no stocks cluster in the default site")
	}

	// Pass 1: the whole mixed site. Movies and books route; every stock
	// page must come back unrouted — and be captured, not dropped.
	var lines []pipeline.PageLine
	for _, cl := range clusters {
		for _, p := range cl.Pages {
			lines = append(lines, pipeline.PageLine{URI: p.URI, HTML: dom.Render(p.Doc)})
		}
	}
	results := ingestPages(t, ts.URL, lines)
	unrouted := 0
	for _, res := range results {
		if strings.Contains(res.Error, "unrouted") {
			unrouted++
		}
	}
	if unrouted != len(stocks.Pages) {
		t.Fatalf("%d unrouted results, want %d (the stocks cluster)", unrouted, len(stocks.Pages))
	}
	var metrics Snapshot
	mustGetJSON(t, ts.URL+"/metrics", &metrics)
	if metrics.UnroutedBuffered != len(stocks.Pages) {
		t.Fatalf("unroutedBuffered = %d, want %d", metrics.UnroutedBuffered, len(stocks.Pages))
	}
	for _, k := range []string{"queued", "running", "staged", "failed"} {
		if _, ok := metrics.InductionJobs[k]; !ok {
			t.Fatalf("metrics inductionJobs missing %q key: %v", k, metrics.InductionJobs)
		}
	}

	// The buffer holds one bucket for the stock pages; without examples
	// a planning pass stays empty.
	var induceResp struct {
		Buffered int                 `json:"buffered"`
		Buckets  []induct.BucketInfo `json:"buckets"`
		Queued   []*induct.Job       `json:"queued"`
	}
	if status, raw := postBodyJSON(t, ts.URL+"/induce", nil, &induceResp); status != http.StatusOK {
		t.Fatalf("/induce: %d: %s", status, raw)
	}
	if len(induceResp.Buckets) != 1 || len(induceResp.Queued) != 0 {
		t.Fatalf("induce (no examples) = %+v, want one bucket, nothing queued", induceResp)
	}

	// The operator labels a representative subset — the API stand-in
	// for pointing at values in the Retrozilla browser.
	sample, _ := stocks.RepresentativeSplit(10)
	examples := map[string]map[string][]string{}
	for _, p := range sample {
		vals := map[string][]string{}
		for _, comp := range stocks.ComponentNames() {
			if vs := stocks.TruthStrings(p, comp); len(vs) > 0 {
				vals[comp] = vs
			}
		}
		examples[p.URI] = vals
	}
	if status, raw := postBodyJSON(t, ts.URL+"/induce",
		map[string]any{"examples": examples}, &induceResp); status != http.StatusOK {
		t.Fatalf("/induce with examples: %d: %s", status, raw)
	}
	if len(induceResp.Queued) != 1 {
		t.Fatalf("induce queued %d job(s), want 1: %+v", len(induceResp.Queued), induceResp)
	}
	jobID := induceResp.Queued[0].ID

	// The job runs in the background: wait for the engine to go idle,
	// then read the job once.
	srv.Induct.Wait()
	var job induct.Job
	mustGetJSON(t, ts.URL+"/jobs/"+jobID, &job)
	if job.State != induct.JobStaged {
		t.Fatalf("job %s: %s (components %v)", job.State, job.Error, job.Components)
	}
	if job.Cluster != "quotes-example-q" {
		t.Errorf("induced cluster name %q", job.Cluster)
	}
	// Staged ≠ active: the cluster must still be unroutable.
	if _, ok := srv.Registry.Get(job.Cluster); ok {
		t.Fatal("staged repository already active before promote")
	}
	var jobsList struct {
		Jobs   []*induct.Job    `json:"jobs"`
		Counts map[string]int64 `json:"counts"`
	}
	mustGetJSON(t, ts.URL+"/jobs", &jobsList)
	if len(jobsList.Jobs) != 1 || jobsList.Counts["staged"] != 1 {
		t.Fatalf("/jobs = %+v, want the one staged job", jobsList)
	}

	// The human half of the loop: promote.
	var promoted struct {
		Repo          string `json:"repo"`
		ActiveVersion int    `json:"activeVersion"`
	}
	if status, raw := postBodyJSON(t, ts.URL+"/jobs/"+jobID+"/promote", nil, &promoted); status != http.StatusOK {
		t.Fatalf("promote: %d: %s", status, raw)
	}
	if promoted.Repo != job.Cluster || promoted.ActiveVersion != job.Version {
		t.Fatalf("promote = %+v, want repo %s version %d", promoted, job.Cluster, job.Version)
	}

	// Pass 2: the previously-unrouted cluster now routes and extracts —
	// every stock page, including ones the operator never labeled, with
	// values matching the ground truth exactly.
	for _, p := range stocks.Pages {
		resp, err := http.Post(ts.URL+"/extract?uri="+p.URI, "text/html",
			strings.NewReader(dom.Render(p.Doc)))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("second-pass extract %s: %d: %s", p.URI, resp.StatusCode, raw)
		}
		var res extractResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if res.Repo != job.Cluster {
			t.Errorf("page %s routed to %q, want %q", p.URI, res.Repo, job.Cluster)
		}
		if len(res.Failures) > 0 {
			t.Errorf("page %s: failures %v", p.URI, res.Failures)
		}
		record, ok := res.Record.(map[string]any)
		if !ok {
			t.Fatalf("page %s: record %T: %s", p.URI, res.Record, raw)
		}
		for _, comp := range stocks.ComponentNames() {
			want := stocks.TruthStrings(p, comp)
			got, _ := record[comp].(string)
			if len(want) != 1 || textutil.NormalizeSpace(got) != want[0] {
				t.Errorf("page %s %s = %q, want %v", p.URI, comp, got, want)
			}
		}
	}

	// The loop's accounting: job promoted, bucket released, router hits.
	mustGetJSON(t, ts.URL+"/metrics", &metrics)
	if metrics.UnroutedBuffered != 0 {
		t.Errorf("unroutedBuffered = %d after promote, want 0", metrics.UnroutedBuffered)
	}
	if metrics.InductionJobs["promoted"] != 1 {
		t.Errorf("inductionJobs = %v, want promoted 1", metrics.InductionJobs)
	}
	if metrics.RouterHits == 0 {
		t.Error("no router hits recorded on the second pass")
	}
}

// TestInductionEndpointsDisabled: without EnableInduction the induction
// API answers 501, and unrouted pages are simply dropped as before.
func TestInductionEndpointsDisabled(t *testing.T) {
	_, ts := newTestServer(t)
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/induce"},
		{http.MethodGet, "/jobs"},
		{http.MethodGet, "/jobs/j1"},
		{http.MethodPost, "/jobs/j1/promote"},
		{http.MethodPost, "/jobs/j1/cancel"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, strings.NewReader(""))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("%s %s = %d, want 501", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestExtractCapturesUnroutedPage: the PR-4 regression this PR fixes —
// /extract (and /extract/url) must retain an unrouted page body for
// induction instead of discarding it after counting the miss.
func TestExtractCapturesUnroutedPage(t *testing.T) {
	cl, repo := buildMoviesRepo(t, 92, 8)
	sig := buildRepoWithSignature(t, cl).Signature
	repo.Signature = sig
	srv, ts := newTestServer(t)
	eng := srv.EnableInduction(induct.Config{})
	t.Cleanup(eng.Close)
	postJSONRepo(t, ts.URL, repo, "")

	alien := corpus.GenerateStocks(corpus.DefaultStockProfile(93, 3))
	for i, p := range alien.Pages {
		resp, err := http.Post(ts.URL+"/extract?uri="+p.URI, "text/html",
			strings.NewReader(dom.Render(p.Doc)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("alien page: %d, want 422", resp.StatusCode)
		}
		if got := eng.Buffer().Len(); got != i+1 {
			t.Fatalf("buffer holds %d pages after %d unrouted extracts", got, i+1)
		}
	}

	// /extract/url captures through the same path.
	siteSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, dom.Render(alien.Pages[0].Doc))
	}))
	t.Cleanup(siteSrv.Close)
	resp, err := http.Post(ts.URL+"/extract/url?url="+siteSrv.URL+"/x", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("/extract/url alien: %d, want 422", resp.StatusCode)
	}
	if got := eng.Buffer().Len(); got != len(alien.Pages)+1 {
		t.Errorf("buffer holds %d pages, want %d (url fetch captured too)",
			got, len(alien.Pages)+1)
	}
}
