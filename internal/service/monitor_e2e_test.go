package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/lifecycle"
	"repro/internal/monitor"
	"repro/internal/resilient"
	"repro/internal/webfetch"
)

// postSchedule registers a recrawl schedule over the wire and returns
// the created state. Unlike postJSONRepo it expects 201.
func postSchedule(t testing.TB, base, repo, siteURL, interval string) monitor.ScheduleState {
	t.Helper()
	body, err := json.Marshal(scheduleRequest{Repo: repo, URL: siteURL, Interval: interval})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/schedules", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := readAllString(t, resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /schedules: %d: %s", resp.StatusCode, raw)
	}
	var st monitor.ScheduleState
	if err := json.Unmarshal([]byte(raw), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func readAllString(t testing.TB, r interface{ Read([]byte) (int, error) }) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}

func httpGetBody(t testing.TB, url string, accept string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, readAllString(t, resp.Body)
}

// TestMonitorSchedulerE2E drives the drift-adaptive recrawl scheduler
// end to end on a fake clock — zero wall-clock sleeps, every firing at
// an exact instant:
//
//	t=0    baseline: all three repos crawl, 36 "new" events, intervals 1m→2m
//	t=2m   all clean: intervals decay 2m→4m
//	       (movies pages drift: every "runtime" label relabeled)
//	t=6m   books+stocks clean → 8m (max); movies trips the drift alarm
//	       mid-recrawl, repairs synchronously, re-extracts with the
//	       promoted rules — zero change events, interval snaps to 1m
//	t=7m   movies clean again: EWMA halves, interval 1m→1m30s
//	       (two stock pages change their volume; one page 404s)
//	t=14m  movies+books clean; stocks emits 2 changed + 1 vanished
//
// The /changes NDJSON must match the committed golden byte for byte
// (run with UPDATE_GOLDEN=1 to regenerate after an intended change).
func TestMonitorSchedulerE2E(t *testing.T) {
	site, clusters, err := webfetch.DefaultSite(71, 12)
	if err != nil {
		t.Fatal(err)
	}
	// gone holds paths the site 404s — SetPages can swap a page but
	// never remove one, and "vanished" needs true removal.
	var gone sync.Map
	siteSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := gone.Load(r.URL.Path); ok {
			http.NotFound(w, r)
			return
		}
		site.ServeHTTP(w, r)
	}))
	defer siteSrv.Close()
	siteHost := strings.TrimPrefix(siteSrv.URL, "http://")

	srv := NewServer(4, 16, &webfetch.Fetcher{MaxPages: 100})
	defer srv.Close()
	srv.AutoRepair = false // repair happens synchronously inside the recrawl pass
	srv.Lifecycle = lifecycle.Config{
		WindowSize: 12, MinSamples: 6, TripRatio: 0.5,
		BufferSize: 64, RepairSample: 10,
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	t0 := time.Unix(1700000000, 0).UTC()
	fake := resilient.NewFakeClock(t0)
	sched := srv.EnableMonitor(monitor.Config{
		MinInterval: time.Minute,
		MaxInterval: 8 * time.Minute,
		Budget:      1, // strict (NextFire, repo) firing order
		Rand:        func() float64 { return 0 },
		Clock:       fake,
	})
	// The recrawl journal (the WAL hook) records every firing in order.
	var firings []*monitor.RecrawlRecord
	sched.SetJournal(monitor.Journal{Recrawl: func(rec *monitor.RecrawlRecord) {
		firings = append(firings, rec)
	}})

	for _, cl := range clusters {
		postJSONRepo(t, ts.URL, buildRepoWithSignature(t, cl), "")
	}
	for _, name := range []string{"books", "imdb-movies", "stocks"} {
		st := postSchedule(t, ts.URL, name, siteSrv.URL+"/", "1m")
		if st.Interval != time.Minute || !st.NextFire.Equal(t0) {
			t.Fatalf("schedule %s: interval=%v nextFire=%v", name, st.Interval, st.NextFire)
		}
	}

	ctx := context.Background()
	tick := func(wantFired int) {
		t.Helper()
		if n := sched.Tick(ctx); n != wantFired {
			t.Fatalf("at %v: Tick fired %d schedules, want %d",
				fake.Now().Sub(t0), n, wantFired)
		}
	}

	// t=0: baseline crawl of all three repos.
	tick(3)
	if next, ok := sched.NextDue(); !ok || !next.Equal(t0.Add(2*time.Minute)) {
		t.Fatalf("next due = %v, %v; want t0+2m", next, ok)
	}

	// t=2m: everything stable, intervals decay to 4m.
	fake.Advance(2 * time.Minute)
	tick(3)

	// The movies cluster evolves: every "runtime" label is relabeled,
	// breaking extraction on all 12 pages.
	moviesCl := clusters[0]
	drifted, _ := corpus.InjectDrift(moviesCl, "runtime", corpus.DriftRelabel, 1.0, 5)
	if err := site.SetPages(drifted); err != nil {
		t.Fatal(err)
	}

	// t=6m: books and stocks decay to the 8m ceiling; movies trips the
	// alarm mid-recrawl, repairs, re-extracts — and because the repaired
	// values match the pre-drift goldens exactly, the feed stays silent.
	fake.Advance(4 * time.Minute)
	tick(3)
	mv, ok := sched.Get("imdb-movies")
	if !ok || mv.LastOutcome != monitor.OutcomeRepaired || mv.Interval != time.Minute || mv.DriftRate != 1 {
		t.Fatalf("movies after repair = %+v", mv)
	}
	for _, name := range []string{"books", "stocks"} {
		if st, _ := sched.Get(name); st.Interval != 8*time.Minute {
			t.Fatalf("%s interval = %v, want 8m (max)", name, st.Interval)
		}
	}

	// t=7m: only movies is due (snap-back); a clean pass halves the EWMA.
	fake.Advance(time.Minute)
	tick(1)
	if mv, _ = sched.Get("imdb-movies"); mv.Interval != 90*time.Second || mv.DriftRate != 0.5 {
		t.Fatalf("movies after clean pass = interval %v rate %v", mv.Interval, mv.DriftRate)
	}

	// The stocks site updates: two pages change their traded volume, one
	// page disappears outright.
	stocksCl := clusters[2]
	sp := append([]*core.Page(nil), stocksCl.Pages...)
	sort.Slice(sp, func(i, j int) bool { return sp[i].URI < sp[j].URI })
	var mutated []*core.Page
	for i, repl := range map[int]string{1: "111222333", 2: "444555666"} {
		vol := stocksCl.TruthStrings(sp[i], "volume")
		if len(vol) != 1 {
			t.Fatalf("page %s: volume truth = %v", sp[i].URI, vol)
		}
		html := dom.Render(sp[i].Doc)
		if strings.Count(html, vol[0]) != 1 {
			t.Fatalf("page %s: volume %q not unique in page", sp[i].URI, vol[0])
		}
		mutated = append(mutated, core.NewPage(sp[i].URI, strings.Replace(html, vol[0], repl, 1)))
	}
	if err := site.SetPages(mutated); err != nil {
		t.Fatal(err)
	}
	goneURL, err := url.Parse(sp[4].URI)
	if err != nil {
		t.Fatal(err)
	}
	gone.Store(goneURL.Path, true)

	// t=14m: movies (due since 8m30s) fires first, then books and stocks.
	fake.Advance(7 * time.Minute)
	tick(3)
	st, _ := sched.Get("stocks")
	if st.LastOutcome != monitor.OutcomeClean || st.DriftRate != 0.125 {
		t.Fatalf("stocks after changes = %+v", st)
	}
	if want := monitor.AdaptInterval(8*time.Minute, time.Minute, 8*time.Minute, 0.125); st.Interval != want {
		t.Fatalf("stocks interval = %v, want %v", st.Interval, want)
	}
	if len(st.Seen) != 11 { // 12 pages - 1 vanished
		t.Fatalf("stocks seen set = %d records, want 11", len(st.Seen))
	}

	// The exact firing sequence, oldest first.
	type fir struct {
		repo, outcome          string
		new, changed, vanished int
		interval               time.Duration
	}
	want := []fir{
		{"books", "clean", 12, 0, 0, 2 * time.Minute},
		{"imdb-movies", "clean", 12, 0, 0, 2 * time.Minute},
		{"stocks", "clean", 12, 0, 0, 2 * time.Minute},
		{"books", "clean", 0, 0, 0, 4 * time.Minute},
		{"imdb-movies", "clean", 0, 0, 0, 4 * time.Minute},
		{"stocks", "clean", 0, 0, 0, 4 * time.Minute},
		{"books", "clean", 0, 0, 0, 8 * time.Minute},
		{"imdb-movies", "repaired", 0, 0, 0, time.Minute},
		{"stocks", "clean", 0, 0, 0, 8 * time.Minute},
		{"imdb-movies", "clean", 0, 0, 0, 90 * time.Second},
		{"imdb-movies", "clean", 0, 0, 0, 150 * time.Second},
		{"books", "clean", 0, 0, 0, 8 * time.Minute},
		{"stocks", "clean", 0, 2, 1, monitor.AdaptInterval(8*time.Minute, time.Minute, 8*time.Minute, 0.125)},
	}
	if len(firings) != len(want) {
		t.Fatalf("journal has %d firings, want %d", len(firings), len(want))
	}
	for i, w := range want {
		h := firings[i]
		got := fir{repo: h.Schedule.Repo, outcome: h.Schedule.LastOutcome, interval: h.Schedule.Interval}
		for _, c := range h.Changes {
			switch c.Kind {
			case monitor.KindNew:
				got.new++
			case monitor.KindChanged:
				got.changed++
			case monitor.KindVanished:
				got.vanished++
			}
		}
		if got != w {
			t.Errorf("firing %d = %+v, want %+v", i, got, w)
		}
	}

	// The change feed over the wire, byte for byte against the golden.
	code, body := httpGetBody(t, ts.URL+"/changes", "")
	if code != http.StatusOK {
		t.Fatalf("GET /changes: %d: %s", code, body)
	}
	normalized := strings.ReplaceAll(body, siteHost, "site.invalid")
	goldenPath := filepath.Join("testdata", "changefeed.golden.ndjson")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(normalized), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if normalized != string(golden) {
		t.Errorf("change feed differs from golden:\n--- got ---\n%s\n--- want ---\n%s",
			normalized, golden)
	}
	lines := strings.Split(strings.TrimSuffix(normalized, "\n"), "\n")
	if len(lines) != 39 { // 36 new + 2 changed + 1 vanished
		t.Fatalf("feed has %d events, want 39", len(lines))
	}

	// Tailing from a cursor returns only the stocks updates.
	code, tail := httpGetBody(t, ts.URL+"/changes?since=36", "")
	if code != http.StatusOK {
		t.Fatalf("GET /changes?since=36: %d", code)
	}
	var kinds []string
	for _, line := range strings.Split(strings.TrimSuffix(tail, "\n"), "\n") {
		var ev monitor.Change
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		kinds = append(kinds, ev.Kind)
	}
	sort.Strings(kinds)
	if got := strings.Join(kinds, ","); got != "changed,changed,vanished" {
		t.Fatalf("tail kinds = %s", got)
	}

	// The new metric families report the run.
	code, prom := httpGetBody(t, ts.URL+"/metrics", "text/plain")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	for _, wantLine := range []string{
		`extractd_recrawl_total{outcome="clean"} 12`,
		`extractd_recrawl_total{outcome="repaired"} 1`,
		`extractd_recrawl_interval_seconds{repo="books"} 480`,
		`extractd_recrawl_interval_seconds{repo="imdb-movies"} 150`,
		`extractd_changefeed_records_total{kind="new"} 36`,
		`extractd_changefeed_records_total{kind="changed"} 2`,
		`extractd_changefeed_records_total{kind="vanished"} 1`,
	} {
		if !strings.Contains(prom, wantLine) {
			t.Errorf("metrics exposition missing %q", wantLine)
		}
	}
}

// TestScheduleAPI covers the management surface: 501 without -monitor,
// validation failures, and the pause/resume/delete round trip.
func TestScheduleAPI(t *testing.T) {
	srv, ts := newTestServer(t)

	// Without -monitor every scheduler route answers the same 501.
	var first string
	for _, rt := range []struct{ method, path, body string }{
		{http.MethodPost, "/schedules", `{"repo":"imdb-movies","url":"http://x/"}`},
		{http.MethodGet, "/schedules", ""},
		{http.MethodPost, "/schedules/imdb-movies/pause", ""},
		{http.MethodPost, "/schedules/imdb-movies/resume", ""},
		{http.MethodDelete, "/schedules/imdb-movies", ""},
		{http.MethodGet, "/changes", ""},
	} {
		req, err := http.NewRequest(rt.method, ts.URL+rt.path, strings.NewReader(rt.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := readAllString(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Fatalf("%s %s without monitor = %d, want 501", rt.method, rt.path, resp.StatusCode)
		}
		if first == "" {
			first = body
			if !strings.Contains(body, "monitoring not enabled (start extractd with -monitor)") {
				t.Fatalf("%s %s without monitor: body %q", rt.method, rt.path, body)
			}
		} else if body != first {
			t.Fatalf("%s %s without monitor: body %q, want %q", rt.method, rt.path, body, first)
		}
	}

	fake := resilient.NewFakeClock(time.Unix(1700000000, 0).UTC())
	sched := srv.EnableMonitor(monitor.Config{
		Clock: fake, Rand: func() float64 { return 0 }, Budget: 1,
		MinInterval: time.Minute, MaxInterval: 8 * time.Minute,
		Recrawl: func(ctx context.Context, sc monitor.ScheduleState) (*monitor.RecrawlResult, error) {
			return &monitor.RecrawlResult{Records: map[string]monitor.Record{}}, nil
		},
	})

	_, repo := buildMoviesRepo(t, 3, 12)
	postJSONRepo(t, ts.URL, repo, "")

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, readAllString(t, resp.Body)
	}

	if code, _ := post("/schedules", `{"repo":"nope","url":"http://x/"}`); code != http.StatusNotFound {
		t.Fatalf("unknown repo = %d, want 404", code)
	}
	if code, _ := post("/schedules", `{"repo":"imdb-movies","url":"http://x/","interval":"soon"}`); code != http.StatusBadRequest {
		t.Fatalf("bad interval = %d, want 400", code)
	}
	if code, _ := post("/schedules", `{"repo":"imdb-movies","url":"ftp://x/"}`); code != http.StatusBadRequest {
		t.Fatalf("bad url = %d, want 400", code)
	}
	if code, _ := post("/schedules", `{nope`); code != http.StatusBadRequest {
		t.Fatalf("bad json = %d, want 400", code)
	}

	st := postSchedule(t, ts.URL, "imdb-movies", "http://site.invalid/", "5m")
	if st.Interval != 5*time.Minute {
		t.Fatalf("interval = %v", st.Interval)
	}

	code, body := httpGetBody(t, ts.URL+"/schedules", "")
	if code != http.StatusOK || !strings.Contains(body, `"imdb-movies"`) {
		t.Fatalf("GET /schedules = %d: %s", code, body)
	}

	if code, _ := post("/schedules/imdb-movies/pause", ""); code != http.StatusOK {
		t.Fatalf("pause = %d", code)
	}
	if st, _ := sched.Get("imdb-movies"); !st.Paused {
		t.Fatal("schedule not paused")
	}
	if _, ok := sched.NextDue(); ok {
		t.Fatal("paused schedule still due")
	}
	if code, _ := post("/schedules/imdb-movies/resume", ""); code != http.StatusOK {
		t.Fatalf("resume = %d", code)
	}
	if st, _ := sched.Get("imdb-movies"); st.Paused {
		t.Fatal("schedule still paused after resume")
	}
	if code, _ := post("/schedules/nope/pause", ""); code != http.StatusNotFound {
		t.Fatalf("pause unknown = %d, want 404", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/schedules/imdb-movies", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	if _, ok := sched.Get("imdb-movies"); ok {
		t.Fatal("schedule survived delete")
	}

	if code, _ := httpGetBody(t, ts.URL+"/changes?since=abc", ""); code != http.StatusBadRequest {
		t.Fatalf("bad since = %d, want 400", code)
	}
}

// TestChangesFollowStream tails /changes?follow=1 while the scheduler
// emits events: the follower sees each event as it is published.
func TestChangesFollowStream(t *testing.T) {
	srv, ts := newTestServer(t)
	fake := resilient.NewFakeClock(time.Unix(1700000000, 0).UTC())
	var (
		mu   sync.Mutex
		recs = map[string]monitor.Record{
			"http://site.invalid/a": {Fingerprint: "f1", Values: map[string][]string{"x": {"1"}}},
		}
	)
	sched := srv.EnableMonitor(monitor.Config{
		Clock: fake, Rand: func() float64 { return 0 }, Budget: 1,
		MinInterval: time.Minute, MaxInterval: 8 * time.Minute,
		Recrawl: func(ctx context.Context, sc monitor.ScheduleState) (*monitor.RecrawlResult, error) {
			mu.Lock()
			defer mu.Unlock()
			out := make(map[string]monitor.Record, len(recs))
			for k, v := range recs {
				out[k] = v
			}
			return &monitor.RecrawlResult{Records: out}, nil
		},
	})
	if _, err := sched.Register("quotes", "http://site.invalid/", time.Minute); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	sched.Tick(ctx) // seq 1: new

	resp, err := http.Get(ts.URL + "/changes?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)

	readEvent := func() monitor.Change {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("follow stream ended: %v", sc.Err())
		}
		var ev monitor.Change
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event %q: %v", sc.Text(), err)
		}
		return ev
	}

	if ev := readEvent(); ev.Seq != 1 || ev.Kind != monitor.KindNew {
		t.Fatalf("first event = %+v", ev)
	}

	mu.Lock()
	recs["http://site.invalid/a"] = monitor.Record{Fingerprint: "f2", Values: map[string][]string{"x": {"2"}}}
	mu.Unlock()
	fake.Advance(2 * time.Minute)
	sched.Tick(ctx)

	if ev := readEvent(); ev.Seq != 2 || ev.Kind != monitor.KindChanged {
		t.Fatalf("second event = %+v", ev)
	}
}

// writeCounter is a flushing ResponseWriter that counts Write and Flush
// calls.
type writeCounter struct {
	*httptest.ResponseRecorder
	writes, flushes int
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(b)
}

func (w *writeCounter) Flush() {
	w.flushes++
	w.ResponseRecorder.Flush()
}

// TestChangesBatchWrite: /changes sends a batch of events as one Write
// and one flush, in the bytes json.Encoder writes for them.
func TestChangesBatchWrite(t *testing.T) {
	srv := NewServer(1, 0, nil)
	defer srv.Close()
	recs := map[string]monitor.Record{}
	for _, p := range []string{"a", "b", "c"} {
		recs["http://site.invalid/"+p] = monitor.Record{Fingerprint: "f" + p,
			Values: map[string][]string{"x": {"<" + p + ">", "&"}}}
	}
	sched := srv.EnableMonitor(monitor.Config{
		Clock: resilient.NewFakeClock(time.Unix(1700000000, 0).UTC()), Rand: func() float64 { return 0 }, Budget: 1,
		MinInterval: time.Minute, MaxInterval: 8 * time.Minute,
		Recrawl: func(ctx context.Context, sc monitor.ScheduleState) (*monitor.RecrawlResult, error) {
			return &monitor.RecrawlResult{Records: recs}, nil
		},
	})
	if _, err := sched.Register("quotes", "http://site.invalid/", time.Minute); err != nil {
		t.Fatal(err)
	}
	sched.Tick(context.Background())
	events := sched.Feed().Since(0)
	if len(events) != 3 {
		t.Fatalf("%d events, want one per record", len(events))
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}

	w := &writeCounter{ResponseRecorder: httptest.NewRecorder()}
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/changes", nil))
	if w.Code != http.StatusOK || w.Body.String() != want.String() {
		t.Fatalf("GET /changes = %d %q, want json.Encoder's %q", w.Code, w.Body, want.String())
	}
	if w.writes != 1 || w.flushes != 1 {
		t.Errorf("%d writes, %d flushes; want one of each", w.writes, w.flushes)
	}
}
