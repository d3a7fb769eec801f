package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/induct"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/textutil"
)

// In-process restart tests: the same data directory is reopened by a
// fresh Server and every subsystem must come back exactly. The crash
// variant (SIGKILL on the real binary) lives in cmd/extractd.

// attachTestStore opens dir and attaches it to srv, failing the test on
// any error. The store is closed via t.Cleanup unless the test closes
// it first (Close is idempotent).
func attachTestStore(t *testing.T, srv *Server, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreRegistryRouterRoundTrip drives the registry through its full
// mutation vocabulary — load, stage, promote, rollback, remove — closes
// the store mid-WAL (no final snapshot), and asserts a reopening server
// replays to the identical version set, active pointer and routing
// table, then serves extraction from the replayed state.
func TestStoreRegistryRouterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(41, 12))
	repo := buildRepoWithSignature(t, cl)
	books := corpus.GenerateBooks(corpus.DefaultBookProfile(42, 12))
	booksRepo := buildRepoWithSignature(t, books)

	srv1, _ := newTestServer(t)
	st1 := attachTestStore(t, srv1, dir)
	if _, err := srv1.LoadRepo("", repo); err != nil { // v1, active
		t.Fatal(err)
	}
	if _, err := srv1.Registry.Stage(cl.Name, repo); err != nil { // v2, staged
		t.Fatal(err)
	}
	if _, err := srv1.Registry.Promote(cl.Name, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := srv1.Registry.Rollback(cl.Name); err != nil { // back to v1
		t.Fatal(err)
	}
	if _, err := srv1.LoadRepo("", booksRepo); err != nil {
		t.Fatal(err)
	}
	if !srv1.RemoveRepo(books.Name) {
		t.Fatal("remove failed")
	}
	// Close without SaveSnapshot: recovery must come from the WAL tail.
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestServer(t)
	attachTestStore(t, srv2, dir)

	versions, active, ok := srv2.Registry.Versions(cl.Name)
	if !ok || len(versions) != 2 || active != 1 {
		t.Fatalf("replayed %s: %d versions, active v%d, want 2 versions active v1",
			cl.Name, len(versions), active)
	}
	if versions[0].Version != 1 || versions[1].Version != 2 {
		t.Fatalf("replayed versions %d,%d, want 1,2", versions[0].Version, versions[1].Version)
	}
	if _, ok := srv2.Registry.Get(books.Name); ok {
		t.Fatalf("removed repository %s came back", books.Name)
	}
	sigs := srv2.Router.Export()
	if _, ok := sigs[cl.Name]; !ok {
		t.Fatalf("router lost %s after replay (has %d sigs)", cl.Name, len(sigs))
	}
	if _, ok := sigs[books.Name]; ok {
		t.Fatalf("router kept removed repository %s", books.Name)
	}

	// The replayed state must serve: auto-routed extraction against the
	// corpus ground truth.
	p := cl.Pages[0]
	resp, err := http.Post(ts2.URL+"/extract?uri="+p.URI, "text/html",
		strings.NewReader(dom.Render(p.Doc)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extract after replay: %d", resp.StatusCode)
	}
	var res extractResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Repo != cl.Name {
		t.Fatalf("routed to %q, want %q", res.Repo, cl.Name)
	}
	record, _ := res.Record.(map[string]any)
	for _, comp := range cl.ComponentNames() {
		want := cl.TruthStrings(p, comp)
		got, _ := record[comp].(string)
		if len(want) == 1 && textutil.NormalizeSpace(got) != want[0] {
			t.Errorf("%s = %q, want %v", comp, got, want)
		}
	}
}

// TestStoreInductionSurvivesRestart runs the induction loop up to a
// staged job, restarts onto the same data directory, and completes the
// loop on the second process: the staged job is still listed, promotes,
// and the previously-unserved cluster extracts.
func TestStoreInductionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	stocks := corpus.GenerateStocks(corpus.DefaultStockProfile(43, 16))
	movies := corpus.GenerateMovies(corpus.DefaultMovieProfile(46, 10))

	newInductServer := func() (*Server, *httptest.Server) {
		srv, ts := newTestServer(t)
		eng := srv.EnableInduction(induct.Config{MinPages: 8, Workers: 1})
		t.Cleanup(eng.Close)
		attachTestStore(t, srv, dir)
		return srv, ts
	}

	srv1, ts1 := newInductServer()
	// An unrelated routable repository: pages only count as unrouted
	// (and get captured) when the router has signatures to miss.
	if _, err := srv1.LoadRepo("", buildRepoWithSignature(t, movies)); err != nil {
		t.Fatal(err)
	}
	var lines []pipeline.PageLine
	for _, p := range stocks.Pages {
		lines = append(lines, pipeline.PageLine{URI: p.URI, HTML: dom.Render(p.Doc)})
	}
	ingestPages(t, ts1.URL, lines)
	if got := srv1.Induct.Buffer().Len(); got != len(stocks.Pages) {
		t.Fatalf("buffered %d pages, want %d", got, len(stocks.Pages))
	}

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
	var induceResp struct {
		Queued []*induct.Job `json:"queued"`
	}
	if status, raw := postBodyJSON(t, ts1.URL+"/induce",
		map[string]any{"examples": examples}, &induceResp); status != http.StatusOK {
		t.Fatalf("/induce: %d: %s", status, raw)
	}
	if len(induceResp.Queued) != 1 {
		t.Fatalf("queued %d jobs, want 1", len(induceResp.Queued))
	}
	jobID := induceResp.Queued[0].ID

	// The job runs in the background: wait for the engine to go idle,
	// then read the job once.
	srv1.Induct.Wait()
	var job induct.Job
	mustGetJSON(t, ts1.URL+"/jobs/"+jobID, &job)
	if job.State != induct.JobStaged {
		t.Fatalf("job %s: %s", job.State, job.Error)
	}

	// "Restart": drop the first server, reopen the directory fresh.
	if err := srv1.Store.Close(); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newInductServer()

	var jobsList struct {
		Jobs   []*induct.Job    `json:"jobs"`
		Counts map[string]int64 `json:"counts"`
	}
	mustGetJSON(t, ts2.URL+"/jobs", &jobsList)
	if len(jobsList.Jobs) != 1 || jobsList.Counts["staged"] != 1 {
		t.Fatalf("/jobs after restart = %+v, want the one staged job", jobsList)
	}

	var promoted struct {
		Repo          string `json:"repo"`
		ActiveVersion int    `json:"activeVersion"`
	}
	if status, raw := postBodyJSON(t, ts2.URL+"/jobs/"+jobID+"/promote", nil, &promoted); status != http.StatusOK {
		t.Fatalf("promote after restart: %d: %s", status, raw)
	}
	if promoted.Repo != job.Cluster || promoted.ActiveVersion != job.Version {
		t.Fatalf("promote = %+v, want repo %s version %d", promoted, job.Cluster, job.Version)
	}

	// The induced wrapper serves on the second process: an unlabeled
	// page routes and extracts against the ground truth.
	p := stocks.Pages[len(stocks.Pages)-1]
	resp, err := http.Post(ts2.URL+"/extract?uri="+p.URI, "text/html",
		strings.NewReader(dom.Render(p.Doc)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extract after restart+promote: %d", resp.StatusCode)
	}
	var res extractResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Repo != job.Cluster {
		t.Fatalf("routed to %q, want %q", res.Repo, job.Cluster)
	}
}

// TestStoreCaptureStateStableAcrossRestart is the divergence check: the
// full persisted-state export must serialize byte-identically before a
// restart and after the replay — registry, router, drift monitors and
// induction buffer all round-trip with zero drift.
func TestStoreCaptureStateStableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(44, 10))
	repo := buildRepoWithSignature(t, cl)
	stocks := corpus.GenerateStocks(corpus.DefaultStockProfile(45, 6))

	build := func() (*Server, *httptest.Server) {
		srv, ts := newTestServer(t)
		eng := srv.EnableInduction(induct.Config{MinPages: 100, Workers: 1})
		t.Cleanup(eng.Close)
		attachTestStore(t, srv, dir)
		return srv, ts
	}

	srv1, ts1 := build()
	if _, err := srv1.LoadRepo("", repo); err != nil {
		t.Fatal(err)
	}
	// Routed traffic populates the drift monitor; unrouted traffic
	// populates the induction buffer (MinPages 100 keeps the planner
	// quiet, so the state stays exactly what the traffic left behind).
	var lines []pipeline.PageLine
	for _, p := range cl.Pages {
		lines = append(lines, pipeline.PageLine{URI: p.URI, HTML: dom.Render(p.Doc)})
	}
	for _, p := range stocks.Pages {
		lines = append(lines, pipeline.PageLine{URI: p.URI, HTML: dom.Render(p.Doc)})
	}
	ingestPages(t, ts1.URL, lines)

	ps1, err := srv1.captureState()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ps1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Store.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, _ := build()
	ps2, err := srv2.captureState()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(ps2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("state diverged across restart:\nbefore (%d bytes): %.400s\nafter  (%d bytes): %.400s",
			len(want), want, len(got), got)
	}
}
