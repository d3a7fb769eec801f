package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/extract"
	"repro/internal/pipeline"
	"repro/internal/rule"
	"repro/internal/webfetch"
)

// buildMoviesRepo induces a full rule repository for a synthetic movies
// cluster, the way retrozilla would offline.
func buildMoviesRepo(t testing.TB, seed int64, pages int) (*corpus.Cluster, *rule.Repository) {
	t.Helper()
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(seed, pages))
	sample, _ := cl.RepresentativeSplit(10)
	builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
		t.Fatal(err)
	}
	if len(repo.Rules) == 0 {
		t.Fatal("no rules induced")
	}
	return cl, repo
}

func newTestServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(4, 8, &webfetch.Fetcher{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func postJSONRepo(t testing.TB, base string, repo *rule.Repository, name string) repoInfo {
	t.Helper()
	body, err := json.Marshal(repo)
	if err != nil {
		t.Fatal(err)
	}
	u := base + "/repos"
	if name != "" {
		u += "?name=" + url.QueryEscape(name)
	}
	resp, err := http.Post(u, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /repos: %d: %s", resp.StatusCode, raw)
	}
	var info repoInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// TestEndToEndServeFetchExtract is the acceptance path: the synthetic
// corpus served as a live site, a rule repository hot-loaded over HTTP,
// pages extracted through /extract and /extract/url, results identical
// to the offline batch processor, and /metrics reporting the traffic.
func TestEndToEndServeFetchExtract(t *testing.T) {
	cl, repo := buildMoviesRepo(t, 9, 24)

	// The corpus as a live Web site (the "Web site" box of Figure 1).
	siteHandler, err := webfetch.NewSiteHandler(cl)
	if err != nil {
		t.Fatal(err)
	}
	site := httptest.NewServer(siteHandler)
	defer site.Close()

	srv, ts := newTestServer(t)

	// Hot-load the repository over the wire.
	info := postJSONRepo(t, ts.URL, repo, "")
	if info.Name != cl.Name || info.Generation != 1 {
		t.Fatalf("loaded info = %+v", info)
	}
	if len(info.Components) != len(repo.Rules) {
		t.Fatalf("components = %v", info.Components)
	}

	// GET /repos sees it.
	resp, err := http.Get(ts.URL + "/repos")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Repos []repoInfo `json:"repos"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Repos) != 1 || list.Repos[0].Name != cl.Name {
		t.Fatalf("GET /repos = %+v", list)
	}

	// The offline reference: what the batch `extract` CLI would produce.
	refProc, err := extract.NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}

	// POST /extract on a held-out page must match the reference XML.
	page := cl.Pages[len(cl.Pages)-1]
	html := dom.Render(page.Doc)
	resp, err = http.Post(
		ts.URL+"/extract?repo="+cl.Name+"&format=xml&uri="+url.QueryEscape(page.URI),
		"text/html", strings.NewReader(html))
	if err != nil {
		t.Fatal(err)
	}
	gotXML, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /extract: %d: %s", resp.StatusCode, gotXML)
	}
	// Reparsing the rendered HTML must not change extraction: compare
	// against the reference run on the same reparsed page.
	reparsed := core.NewPage(page.URI, html)
	refEl, _ := refProc.ExtractPage(reparsed)
	if string(gotXML) != refEl.XMLString() {
		t.Errorf("service XML differs from batch CLI XML:\n--- service ---\n%s\n--- batch ---\n%s",
			gotXML, refEl.XMLString())
	}

	// JSON format carries the same values.
	resp, err = http.Post(
		ts.URL+"/extract?repo="+cl.Name+"&uri="+url.QueryEscape(page.URI),
		"text/html", strings.NewReader(html))
	if err != nil {
		t.Fatal(err)
	}
	var res extractResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.URI != page.URI || res.Repo != cl.Name || res.Generation != 1 {
		t.Fatalf("result envelope = %+v", res)
	}
	record, ok := res.Record.(map[string]any)
	if !ok {
		t.Fatalf("record is %T", res.Record)
	}
	wantTitle := refEl.Find("title")
	if wantTitle != nil && record["title"] != wantTitle.Text {
		t.Errorf("JSON title = %v, want %q", record["title"], wantTitle.Text)
	}

	// POST /extract/url: the service fetches from the live site itself.
	pageURL, _ := url.Parse(page.URI)
	liveURL := site.URL + pageURL.Path
	resp, err = http.Post(
		ts.URL+"/extract/url?repo="+cl.Name+"&format=xml&url="+url.QueryEscape(liveURL),
		"", nil)
	if err != nil {
		t.Fatal(err)
	}
	viaURL, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /extract/url: %d: %s", resp.StatusCode, viaURL)
	}
	// Same page, different URI attribute — compare with the reference
	// processor run against the served copy.
	served := core.NewPage(liveURL, html)
	refServed, _ := refProc.ExtractPage(served)
	if string(viaURL) != refServed.XMLString() {
		t.Errorf("extract/url XML differs from batch XML:\n%s\nvs\n%s", viaURL, refServed.XMLString())
	}

	// Hot reload bumps the generation.
	info = postJSONRepo(t, ts.URL, repo, "")
	if info.Generation != 2 {
		t.Fatalf("reload generation = %d", info.Generation)
	}

	// Metrics saw the traffic.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Requests["extract"] < 2 {
		t.Errorf("extract request count = %d", snap.Requests["extract"])
	}
	if snap.Requests["extract.url"] < 1 || snap.Requests["repos.load"] < 2 {
		t.Errorf("requests = %v", snap.Requests)
	}
	if snap.PagesExtracted < 3 {
		t.Errorf("pages extracted = %d", snap.PagesExtracted)
	}
	if snap.LatencyCount < 3 || len(snap.LatencyHistogram) == 0 {
		t.Errorf("latency: %+v", snap)
	}
	var histTotal int64
	for _, b := range snap.LatencyHistogram {
		histTotal += b.Count
	}
	if histTotal != snap.LatencyCount {
		t.Errorf("histogram total %d != count %d", histTotal, snap.LatencyCount)
	}

	// Healthz.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}

	_ = srv
}

// TestConcurrentExtract hammers /extract from many goroutines while the
// repository is hot-reloaded, proving the registry + immutable processor
// combination is safe under `go test -race`.
func TestConcurrentExtract(t *testing.T) {
	cl, repo := buildMoviesRepo(t, 11, 16)
	_, ts := newTestServer(t)
	postJSONRepo(t, ts.URL, repo, "")

	htmls := make([]string, len(cl.Pages))
	for i, p := range cl.Pages {
		htmls[i] = dom.Render(p.Doc)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				html := htmls[(w*8+i)%len(htmls)]
				resp, err := http.Post(ts.URL+"/extract?repo="+cl.Name, "text/html",
					strings.NewReader(html))
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	// Two reloaders race with the extraction traffic.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				postJSONRepo(t, ts.URL, repo, "")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestExtractBatchNDJSON streams a batch through /extract/batch.
func TestExtractBatchNDJSON(t *testing.T) {
	cl, repo := buildMoviesRepo(t, 13, 12)
	_, ts := newTestServer(t)
	postJSONRepo(t, ts.URL, repo, "")

	var in strings.Builder
	const n = 6
	for i := 0; i < n; i++ {
		line, err := json.Marshal(pipeline.PageLine{URI: cl.Pages[i].URI, HTML: dom.Render(cl.Pages[i].Doc)})
		if err != nil {
			t.Fatal(err)
		}
		in.Write(line)
		in.WriteByte('\n')
	}
	resp, err := http.Post(ts.URL+"/extract/batch?repo="+cl.Name, "application/x-ndjson",
		strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch: %d: %s", resp.StatusCode, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	got := 0
	for sc.Scan() {
		var res extractResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("line %d: %v: %s", got, err, sc.Text())
		}
		if res.URI != cl.Pages[got].URI {
			t.Errorf("line %d: uri %q, want %q", got, res.URI, cl.Pages[got].URI)
		}
		if res.Record == nil {
			t.Errorf("line %d: nil record", got)
		}
		got++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("got %d results, want %d", got, n)
	}
}

// TestExtractErrors covers the failure paths of the extraction endpoints.
func TestExtractErrors(t *testing.T) {
	_, ts := newTestServer(t)

	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/extract", "<html></html>", http.StatusBadRequest},         // no repo param
		{"POST", "/extract?repo=nope", "<html></html>", http.StatusNotFound}, // unknown repo
		{"POST", "/extract/url?repo=nope", "", http.StatusNotFound},          // unknown repo
		{"POST", "/extract/batch?repo=nope", "", http.StatusNotFound},        // unknown repo
		{"POST", "/repos", "{not json", http.StatusUnprocessableEntity},      // bad repo body
		{"DELETE", "/repos?name=nope", "", http.StatusNotFound},              // unload missing
		{"GET", "/extract", "", http.StatusMethodNotAllowed},                 // wrong method
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}

	// Empty repo on an otherwise valid path.
	repo := testRepo(t, "movies")
	postJSONRepo(t, ts.URL, repo, "")
	resp, err := http.Post(ts.URL+"/extract?repo=movies", "text/html", strings.NewReader("   "))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body: status %d", resp.StatusCode)
	}

	// DELETE then miss.
	req, _ := http.NewRequest("DELETE", ts.URL+"/repos?name=movies", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("DELETE: status %d", resp.StatusCode)
	}
	if _, ok := newRegistryProbe(t, ts.URL); ok {
		t.Error("repo still listed after DELETE")
	}
}

// TestBodyLimitRejectsNotTruncates: an oversized request must get 413,
// never a silently truncated extraction.
func TestBodyLimitRejectsNotTruncates(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.MaxBody = 1024
	postJSONRepo(t, ts.URL, testRepo(t, "movies"), "")

	big := strings.Repeat("<p>x</p>", 400) // ~3 KiB
	resp, err := http.Post(ts.URL+"/extract?repo=movies", "text/html", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("/extract oversized: status %d, want 413", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/repos", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("/repos oversized: status %d, want 413", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/extract/batch?repo=movies", "application/x-ndjson", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("/extract/batch oversized: status %d, want 413", resp.StatusCode)
	}
}

// TestReadBodySizing: readBody returns the body whole up to the limit and
// 413s past it, whether the length is declared or not, and never holds
// more than limit+1 bytes; a declared length sizes the buffer exactly.
func TestReadBodySizing(t *testing.T) {
	srv := &Server{MaxBody: 1000}
	for _, n := range []int{0, 1, 511, 512, 513, 999, 1000, 1001, 4000} {
		for _, declared := range []bool{true, false} {
			body := strings.Repeat("x", n)
			r := httptest.NewRequest(http.MethodPost, "/extract", strings.NewReader(body))
			if !declared {
				// A chunked upload: the length is unknown up front.
				r.Body, r.ContentLength = io.NopCloser(strings.NewReader(body)), -1
			}
			got, err := srv.readBody(r)
			if n > 1000 {
				if he, ok := err.(*httpError); !ok || he.status != http.StatusRequestEntityTooLarge ||
					he.msg != "request body exceeds 1000 bytes" {
					t.Errorf("n=%d declared=%v: err %v, want the 413", n, declared, err)
				}
				continue
			}
			if err != nil || string(got) != body {
				t.Errorf("n=%d declared=%v: got %d bytes, err %v", n, declared, len(got), err)
				continue
			}
			if cap(got) > 1001 || declared && cap(got) != n+1 {
				t.Errorf("n=%d declared=%v: buffer cap %d", n, declared, cap(got))
			}
		}
	}
}

// TestFetchAllowlist: with AllowedHosts set, /extract/url refuses other
// hosts before any outbound request happens.
func TestFetchAllowlist(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.AllowedHosts = []string{"corpus.example:80"}
	postJSONRepo(t, ts.URL, testRepo(t, "movies"), "")

	resp, err := http.Post(
		ts.URL+"/extract/url?repo=movies&url="+url.QueryEscape("http://127.0.0.1:1/x"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("disallowed host: status %d (%s), want 403", resp.StatusCode, body)
	}
}

// TestBatchLineNumbersAndSyntheticURIs drives the batch NDJSON contract
// through the endpoint: responses stay positionally aligned with the
// input, malformed lines report their physical line number (blank lines
// skipped but counted), and URI-less pages get the content-derived
// synthetic URI (stable for identical HTML so monitor samples key
// consistently).
func TestBatchLineNumbersAndSyntheticURIs(t *testing.T) {
	_, repo := buildMoviesRepo(t, 14, 12)
	_, ts := newTestServer(t)
	postJSONRepo(t, ts.URL, repo, "movies")

	html := "<html><body><b>Title:</b> x <br></body></html>"
	in := "{\"uri\":\"http://x/a\",\"html\":\"<p>1</p>\"}\n\n\nnot-json\n" +
		"{\"html\":" + string(mustJSON(t, html)) + "}\n"
	resp, err := http.Post(ts.URL+"/extract/batch?repo=movies", "application/x-ndjson",
		strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d", resp.StatusCode)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d response lines, want 3 (aligned with input)", len(lines))
	}
	if uri, _ := lines[0]["uri"].(string); uri != "http://x/a" {
		t.Errorf("line 0 uri = %q", uri)
	}
	// The malformed entry sits on physical line 4 (two blanks skipped).
	if errMsg, _ := lines[1]["error"].(string); !strings.HasPrefix(errMsg, "line 4:") {
		t.Errorf("line 1 error = %q, want a 'line 4:' prefix", lines[1]["error"])
	}
	uri, _ := lines[2]["uri"].(string)
	if uri != syntheticURI([]byte(html)) {
		t.Errorf("line 2 URI = %q, want content-addressed %q", uri, syntheticURI([]byte(html)))
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newRegistryProbe(t *testing.T, base string) (repoInfo, bool) {
	t.Helper()
	resp, err := http.Get(base + "/repos")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Repos []repoInfo `json:"repos"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Repos) == 0 {
		return repoInfo{}, false
	}
	return list.Repos[0], true
}
