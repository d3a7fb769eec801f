package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/induct"
	"repro/internal/pipeline"
	"repro/internal/rule"
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

	ps1 := srv1.exportState()
	want, err := json.Marshal(ps1)
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot's direct encoding is json.Marshal's.
	if enc, err := ps1.encode(); err != nil || !bytes.Equal(enc, want) {
		t.Fatalf("encode (err %v):\n got %.400s\nwant %.400s", err, enc, want)
	}
	if err := srv1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Store.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, _ := build()
	got, err := json.Marshal(srv2.exportState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("state diverged across restart:\nbefore (%d bytes): %.400s\nafter  (%d bytes): %.400s",
			len(want), want, len(got), got)
	}
}

// TestBootCompactsOnlyWhatItRestored: attaching a fresh data directory
// writes no snapshot — there is nothing to fold — while a boot that
// replayed WAL records folds them into one.
func TestBootCompactsOnlyWhatItRestored(t *testing.T) {
	dir := t.TempDir()
	srv1, _ := newTestServer(t)
	st1 := attachTestStore(t, srv1, dir)
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("fresh boot left a snapshot (stat err %v)", err)
	}
	if n := st1.Metrics().Snapshots; n != 0 {
		t.Fatalf("fresh boot compacted %d times, want 0", n)
	}
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(46, 6))
	if _, err := srv1.LoadRepo("", buildRepoWithSignature(t, cl)); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newTestServer(t)
	st2 := attachTestStore(t, srv2, dir)
	if n := st2.Metrics().Snapshots; n != 1 {
		t.Fatalf("boot over a WAL compacted %d times, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("boot over a WAL left no snapshot: %v", err)
	}
}

// TestRestoreReflectCodecDataDir: testdata/reflectcodec/data was written
// by the build before signatures and repository records had direct
// codecs (encoding/json's reflective route): a snapshot holding one
// repository, then a WAL tail with a second load, a staged version and
// a router-learned signature, with keys that need escaping. It must
// restore the registry versions and router signatures that build
// restored, recorded by it in restored.json.
func TestRestoreReflectCodecDataDir(t *testing.T) {
	src := filepath.Join("testdata", "reflectcodec")
	dir := t.TempDir()
	for _, name := range []string{"snapshot.json", "wal.log"} {
		data, err := os.ReadFile(filepath.Join(src, "data", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, _ := newTestServer(t)
	attachTestStore(t, srv, dir)

	var got struct {
		Repos  []json.RawMessage             `json:"repos"`
		Router map[string]*cluster.Signature `json:"router"`
	}
	for _, re := range srv.Registry.Export() {
		b, err := json.Marshal(struct {
			Name    string           `json:"name"`
			Version int              `json:"version"`
			Active  bool             `json:"active"`
			Repo    *rule.Repository `json:"repo"`
		}{re.Name, re.Version, re.Active, re.Repo})
		if err != nil {
			t.Fatal(err)
		}
		got.Repos = append(got.Repos, b)
	}
	got.Router = srv.Router.Export()
	gotJSON, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(src, "restored.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(gotJSON, '\n'), want) {
		t.Fatalf("restored state differs from restored.json:\n%.600s", gotJSON)
	}
	if len(got.Repos) != 3 || len(got.Router) != 2 {
		t.Fatalf("restored %d repository versions and %d signatures, want 3 and 2", len(got.Repos), len(got.Router))
	}
}

// TestJournalConcurrentLoadsReplay: a publish the router never sees,
// then loads of signed repositories racing each other and router
// learning, journal every signature right — the repo.stage record hands
// its signature bytes to the router.sig record only for the very
// signature it encoded — so a restart restores the routing table the
// first server ended with.
func TestJournalConcurrentLoadsReplay(t *testing.T) {
	dir := t.TempDir()
	movies := corpus.GenerateMovies(corpus.DefaultMovieProfile(47, 8))
	books := corpus.GenerateBooks(corpus.DefaultBookProfile(48, 8))
	repos := []*rule.Repository{buildRepoWithSignature(t, movies), buildRepoWithSignature(t, books)}

	srv1, _ := newTestServer(t)
	st1 := attachTestStore(t, srv1, dir)
	// A publish the router never registers: the next router record is
	// another signature's and must carry that signature's bytes.
	if _, err := srv1.Registry.Load("unrouted", repos[0].Clone()); err != nil {
		t.Fatal(err)
	}
	srv1.Router.Observe("learned", cluster.FeaturesFromParts("http://y.example/q/1",
		map[string]struct{}{"HTML/BODY": {}}, map[string]struct{}{"only": {}}))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			if _, err := srv1.LoadRepo("", repos[i%2].Clone()); err != nil {
				t.Error(err)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			srv1.Router.Observe(repos[i%2].Cluster, cluster.FeaturesFromParts(
				fmt.Sprintf("http://x.example/p/%d", i), map[string]struct{}{"HTML": {}},
				map[string]struct{}{fmt.Sprintf("kw%d", i): {}}))
		}(i)
	}
	wg.Wait()
	want, err := json.Marshal(srv1.Router.Export())
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newTestServer(t)
	attachTestStore(t, srv2, dir)
	got, err := json.Marshal(srv2.Router.Export())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replayed routing table differs:\n got %.300s\nwant %.300s", got, want)
	}
}
