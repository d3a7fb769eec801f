package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// promFamilies scrapes ts's /metrics with a Prometheus Accept header
// and parses the exposition.
func promFamilies(t *testing.T, base string) ([]*obs.PromFamily, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics (prom): %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	fams, err := obs.ParseProm(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parsing exposition: %v\n%s", err, raw)
	}
	return fams, string(raw)
}

func familyByName(fams []*obs.PromFamily, name string) *obs.PromFamily {
	for _, f := range fams {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// TestPromExpositionGolden is the scrape acceptance test: real traffic
// through a real server, then the text exposition must parse, lint
// clean, render exactly the declared families and agree with the JSON
// view served from the same endpoint.
func TestPromExpositionGolden(t *testing.T) {
	srv, ts := newTestServer(t)
	repo := testRepo(t, "movies")
	postJSONRepo(t, ts.URL, repo, "")

	// Traffic: two clean extractions and one failing one.
	for _, html := range []string{
		"<html><body><h1>A</h1></body></html>",
		"<html><body><h1>B</h1></body></html>",
		"<html><body><p>no title</p></body></html>",
	} {
		resp, err := http.Post(ts.URL+"/extract?repo=movies", "text/html", strings.NewReader(html))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// The default view stays JSON for untyped clients.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("default /metrics Content-Type = %q, want JSON", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	fams, raw := promFamilies(t, ts.URL)

	// The whole catalogue must satisfy the naming conventions.
	if problems := obs.Lint(fams, obs.LintOptions{}); len(problems) > 0 {
		t.Fatalf("exposition fails lint:\n%s", strings.Join(problems, "\n"))
	}

	// Exactly the declared families, in order.
	assertDeclared(t, fams, raw)

	// Spot-check values against the JSON view of the same counters.
	reqs := familyByName(fams, "extractd_requests_total")
	found := false
	for _, s := range reqs.Samples {
		if s.Label("endpoint") == "extract" {
			found = true
			if int64(s.Value) != snap.Requests["extract"] {
				t.Errorf("requests_total{endpoint=extract} = %v, JSON says %d",
					s.Value, snap.Requests["extract"])
			}
		}
	}
	if !found {
		t.Error("requests_total has no endpoint=extract sample")
	}

	pages := familyByName(fams, "extractd_pages_extracted_total")
	if len(pages.Samples) != 1 || int64(pages.Samples[0].Value) != snap.PagesExtracted {
		t.Errorf("pages_extracted_total = %+v, JSON says %d", pages.Samples, snap.PagesExtracted)
	}

	workers := familyByName(fams, "extractd_pool_workers")
	if len(workers.Samples) != 1 || int(workers.Samples[0].Value) != srv.Pool.Workers() {
		t.Errorf("pool_workers = %+v, want %d", workers.Samples, srv.Pool.Workers())
	}

	// Per-repo counters carry the traffic of the loaded version.
	repoPages := familyByName(fams, "extractd_repo_pages_total")
	found = false
	for _, s := range repoPages.Samples {
		if s.Label("repo") == "movies" && s.Label("version") == "1" {
			found = true
			if s.Value != 3 {
				t.Errorf("repo_pages_total{movies,1} = %v, want 3", s.Value)
			}
		}
	}
	if !found {
		t.Errorf("repo_pages_total has no movies/1 sample: %+v", repoPages.Samples)
	}
	active := familyByName(fams, "extractd_repo_active_version")
	if len(active.Samples) != 1 || active.Samples[0].Label("repo") != "movies" ||
		active.Samples[0].Value != 1 {
		t.Errorf("repo_active_version = %+v", active.Samples)
	}

	// The failing page shows up in the failure counter.
	fails := familyByName(fams, "extractd_extraction_failures_total")
	var missing float64
	for _, s := range fails.Samples {
		if s.Label("kind") == "missing-mandatory" {
			missing = s.Value
		}
	}
	if missing != 1 {
		t.Errorf("extraction_failures_total{missing-mandatory} = %v, want 1", missing)
	}

	// The histogram is cumulative and consistent.
	hist := familyByName(fams, "extractd_extraction_duration_seconds")
	var infCount, count float64
	for _, s := range hist.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket") && s.Label("le") == "+Inf":
			infCount = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		}
	}
	if infCount != 3 || count != 3 {
		t.Errorf("extraction histogram +Inf=%v count=%v, want 3 extractions", infCount, count)
	}
}

// TestPromAcceptVariants: openmetrics and plain Accept headers get the
// text view; JSON Accept and no Accept get JSON.
func TestPromAcceptVariants(t *testing.T) {
	_, ts := newTestServer(t)
	for accept, wantProm := range map[string]bool{
		"text/plain":                   true,
		"application/openmetrics-text": true,
		"text/plain;version=0.0.4":     true,
		"application/json":             false,
		"":                             false,
		"*/*":                          false,
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		ct := resp.Header.Get("Content-Type")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := ct == obs.PromContentType; got != wantProm {
			t.Errorf("Accept %q → Content-Type %q, wantProm=%v", accept, ct, wantProm)
		}
	}
}

// populatedSnapshot fills every Snapshot field, so each family renders
// with its full label set. It is the one hand-filled snapshot.
func populatedSnapshot() Snapshot {
	return Snapshot{
		UptimeSeconds:      1,
		Requests:           map[string]int64{"extract": 1},
		Errors:             map[string]int64{"extract": 1},
		ExtractionFailures: map[string]int64{"missing-mandatory": 1},
		Lifecycle:          map[string]int64{"rollback": 1},
		PagesExtracted:     1, PageCacheHits: 1, PageCacheMisses: 1,
		RouterHits: 1, RouterMisses: 1, RouterUnrouted: 1,
		StreamHits: 1, StreamFallbacks: 1,
		StreamFallbackReasons: map[string]int64{"parsed-doc": 1},
		InductionJobs:         map[string]int64{"queued": 1},
		UnroutedBuffered:      1, UnroutedBufferedBytes: 1, UnroutedEvicted: 1,
		UnroutedDropped:   1,
		LatencySumSeconds: 0.1, LatencyCount: 1,
		LatencyHistogram: []obs.HistogramBucket{{LE: 0.1, Count: 1}, {Count: 0}},
		Pool:             PoolSnapshot{Workers: 1, QueueDepth: 1, QueueCapacity: 1, InFlight: 1, SaturationRatio: 1},
		Repos:            []RepoVersionCount{{Repo: "r", Version: 1, Active: true, Pages: 1}},
		Pipeline: pipeline.TelemetrySnapshot{{
			Stage: "source",
			Latency: obs.HistogramSnapshot{
				Count: 1, Sum: 0.1,
				Buckets: []obs.HistogramBucket{{LE: 0.1, Count: 1}},
			},
		}},
		FetchRetries: 1,
		Fetch:        []FetchOutcomeCount{{Host: "h", Outcome: "ok", Count: 1}},
		Breakers:     []BreakerStatus{{Host: "h", State: 2}},
		Shed:         1,
		PanicsRecovered: map[string]int64{
			"handler": 1,
		},
		Recrawls:          map[string]int64{"clean": 1},
		Schedules:         []ScheduleMetric{{Repo: "r", IntervalSeconds: 60}},
		ChangefeedRecords: map[string]int64{"new": 1},
		Build:             BuildInfo{GoVersion: "go"},
		Store: &store.Metrics{
			WALBytes: 1, WALRecords: 1, Fsyncs: 1, TornTails: 1,
			ReplayRecords: 1, ReplayDurationSeconds: 0.1,
			SnapshotAgeSeconds: 1, Snapshots: 1,
		},
	}
}

// golden compares got with testdata/name byte for byte.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/%s; got:\n%s", name, got)
	}
}

// TestPromGolden pins the Prometheus exposition of the populated
// snapshot byte for byte.
func TestPromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, populatedSnapshot()); err != nil {
		t.Fatal(err)
	}
	golden(t, "populated.prom", buf.Bytes())
}

// TestSnapshotJSONGolden pins the JSON view of Metrics.Snapshot after a
// fixed sequence of recording calls (the clock and build identity
// zeroed).
func TestSnapshotJSONGolden(t *testing.T) {
	m := NewMetrics()
	m.Request("extract", false)
	m.Request("extract", true)
	m.Request("ingest", false)
	m.Extraction(300*time.Microsecond, nil)
	m.Extraction(20*time.Millisecond, []extract.Failure{{Kind: extract.FailureMissingMandatory}})
	m.Extraction(7*time.Second, []extract.Failure{{Kind: extract.FailureMultipleValues}})
	m.Lifecycle("drift.alarm")
	m.PageCache(true)
	m.PageCache(false)
	m.Router(RouterHit)
	m.Router(RouterMiss)
	m.Router(RouterUnrouted)
	m.StreamExtract(true, "")
	m.StreamExtract(false, "parsed-doc")
	m.FetchRetry()
	m.FetchOutcome("b.example", "ok")
	m.FetchOutcome("a.example", "transient")
	m.Shed()
	m.PanicRecovered("handler")
	m.Recrawl("clean")
	snap := m.Snapshot()
	snap.UptimeSeconds, snap.Build = 0, BuildInfo{}
	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "snapshot.json", append(got, '\n'))
}

// assertDeclared checks that an exposition renders exactly the declared
// families, in order, each with its declared type and HELP, and that
// every sample carries exactly its family's declared label keys (plus
// le on histogram buckets).
func assertDeclared(t *testing.T, fams []*obs.PromFamily, raw string) {
	t.Helper()
	if len(fams) != len(families) {
		t.Fatalf("exposition has %d families, %d declared:\n%s", len(fams), len(families), raw)
	}
	for i, f := range fams {
		d := families[i]
		if f.Name != d.Name || f.Type != d.Type || f.Help != d.Help {
			t.Errorf("family %d = %s %s %q, declared %s %s %q", i, f.Name, f.Type, f.Help, d.Name, d.Type, d.Help)
		}
		for _, s := range f.Samples {
			want := d.Labels
			if strings.HasSuffix(s.Name, "_bucket") {
				want = append(slices.Clip(want), "le")
			}
			var keys []string
			for _, l := range s.Labels {
				keys = append(keys, l.Key)
			}
			if !slices.Equal(keys, want) {
				t.Errorf("%s sample has label keys %v, declared %v", s.Name, keys, want)
			}
		}
	}
}

// TestPromJSONParity checks that every Snapshot field is claimed by a
// family entry and every claim names a real field, then renders the
// populated snapshot: every family must yield samples that carry exactly
// its declared label keys.
func TestPromJSONParity(t *testing.T) {
	snap := populatedSnapshot()
	claimed := map[string]bool{}
	for _, f := range families {
		for _, path := range f.fields {
			claimed[strings.Split(path, ".")[0]] = true
			if !field(&snap, path).IsValid() {
				t.Errorf("%s claims %s, which is not a Snapshot field", f.Name, path)
			}
		}
	}
	st := reflect.TypeOf(snap)
	for i := 0; i < st.NumField(); i++ {
		if name := st.Field(i).Name; !claimed[name] {
			t.Errorf("Snapshot field %s is claimed by no family entry in promexpo.go", name)
		}
	}

	var buf bytes.Buffer
	if err := WriteProm(&buf, snap); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertDeclared(t, fams, buf.String())
	for _, f := range fams {
		if len(f.Samples) == 0 {
			t.Errorf("%s renders no samples from the populated snapshot", f.Name)
		}
	}

	// And the JSON view must marshal the same snapshot without loss.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot does not marshal to JSON: %v", err)
	}
}

// TestMetricsConcurrentScrape hammers the extraction counters while
// scraping both /metrics views — meaningful under -race (CI runs it
// there), and each scraped exposition must still parse.
func TestMetricsConcurrentScrape(t *testing.T) {
	_, ts := newTestServer(t)
	repo := testRepo(t, "movies")
	postJSONRepo(t, ts.URL, repo, "")

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Post(ts.URL+"/extract?repo=movies", "text/html",
					strings.NewReader("<html><body><h1>T</h1></body></html>"))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				fams, _ := promFamilies(t, ts.URL)
				if len(fams) == 0 {
					t.Error("empty exposition mid-traffic")
					return
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				var snap Snapshot
				if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
					t.Errorf("JSON view mid-traffic: %v", err)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}
