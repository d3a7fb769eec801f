package webfetch

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultd"
	"repro/internal/pipeline"
	"repro/internal/resilient"
)

// fastRetry is a chaos-test retrier: aggressive attempts, microscopic
// deterministic delays.
func fastRetry(attempts int) *resilient.Retrier {
	return &resilient.Retrier{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Rand:        func() float64 { return 0.5 },
	}
}

// TestChaosFlakyCrawlConverges: with 30% injected 503s (plus latency
// spikes), a retrying crawl still converges to 100% of the site's pages
// with zero per-page errors.
func TestChaosFlakyCrawlConverges(t *testing.T) {
	site, h, _ := chaosSite(t, faultd.Rule{
		Percent: 30, Status: 503, Latency: 2 * time.Millisecond,
	})
	f := &Fetcher{
		Retry: fastRetry(8),
		// High trip threshold: 30% flakiness is weather, not an outage.
		Breakers: resilient.NewBreakerSet(resilient.BreakerConfig{FailureRatio: 0.95}),
	}
	c, err := f.Start(site.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	pages := 0
	for {
		_, err := c.Next(context.Background())
		if err == io.EOF {
			break
		}
		var pe *pipeline.PageError
		if errors.As(err, &pe) {
			// The corpus contains some dangling links; a genuine 404 is
			// permanent and expected. Injected flakiness must not be.
			if !strings.Contains(pe.Error(), "status 404") || resilient.IsTransient(pe.Err) {
				t.Fatalf("transient page error survived retries: %v", pe)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		pages++
	}
	if want := h.PageCount() + 1; pages != want {
		t.Fatalf("crawl converged to %d pages, want %d", pages, want)
	}
}

// chaosSite serves the stock synthetic site through a fault injector.
func chaosSite(t *testing.T, rules ...faultd.Rule) (*httptest.Server, *SiteHandler, *faultd.Injector) {
	t.Helper()
	h, err := NewSiteHandler(
		corpus.GenerateMovies(corpus.DefaultMovieProfile(1, 8)),
		corpus.GenerateBooks(corpus.DefaultBookProfile(2, 8)),
	)
	if err != nil {
		t.Fatal(err)
	}
	in := faultd.New(h, 1)
	for _, r := range rules {
		in.Add(r)
	}
	srv := httptest.NewServer(in)
	t.Cleanup(srv.Close)
	return srv, h, in
}

// TestChaosBreakerOpensAndRecovers: a dead origin opens its breaker
// within the failure window (stopping real requests), and a half-open
// probe closes it again once the origin heals.
func TestChaosBreakerOpensAndRecovers(t *testing.T) {
	var hits atomic.Int64
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "<html><body>ok</body></html>")
	})
	in := faultd.New(backend, 1)
	in.Add(faultd.Rule{Times: 4, Status: 500}) // dead for exactly 4 requests
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		in.ServeHTTP(w, r)
	}))
	defer srv.Close()

	clk := resilient.NewFakeClock(time.Unix(0, 0))
	var outcomes []string
	f := &Fetcher{
		Retry: fastRetry(2),
		Breakers: resilient.NewBreakerSet(resilient.BreakerConfig{
			Window: 8, MinSamples: 4, FailureRatio: 0.5,
			OpenFor: 30 * time.Second, MaxProbes: 1, Clock: clk,
		}),
		OnOutcome: func(_, o string) { outcomes = append(outcomes, o) },
	}

	// Two fetches × two attempts = four failures: ratio 1.0 over the
	// 4-sample minimum trips the breaker.
	for i := 0; i < 2; i++ {
		if _, err := f.FetchPageContext(context.Background(), srv.URL+"/p"); err == nil {
			t.Fatal("fetch against dead origin succeeded")
		}
	}
	states := f.BreakerStates()
	if len(states) != 1 || states[0].State != resilient.StateOpen {
		t.Fatalf("breaker states = %+v, want one open", states)
	}

	// Open circuit: requests are rejected without touching the origin.
	before := hits.Load()
	for i := 0; i < 3; i++ {
		if _, err := f.FetchPageContext(context.Background(), srv.URL+"/p"); err == nil {
			t.Fatal("fetch through open breaker succeeded")
		}
	}
	if hits.Load() != before {
		t.Fatalf("open breaker let %d requests through", hits.Load()-before)
	}
	if outcomes[len(outcomes)-1] != "breaker_open" {
		t.Fatalf("outcomes = %v, want breaker_open last", outcomes)
	}

	// The injected outage is spent (Times: 4), so the half-open probe
	// after the open window finds a healthy origin and closes the circuit.
	clk.Advance(31 * time.Second)
	if _, err := f.FetchPageContext(context.Background(), srv.URL+"/p"); err != nil {
		t.Fatalf("probe fetch after heal failed: %v", err)
	}
	if st := f.BreakerStates()[0].State; st != resilient.StateClosed {
		t.Fatalf("breaker state after recovery = %v, want closed", st)
	}
}

// TestChaosCrawlRecordsPageErrors: a page that fails every retry is
// reported as a per-page error and counted — never silently dropped.
func TestChaosCrawlRecordsPageErrors(t *testing.T) {
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			io.WriteString(w, `<html><body><a href="/bad">b</a><a href="/ok1">1</a><a href="/ok2">2</a></body></html>`)
		default:
			io.WriteString(w, "<html><body>fine</body></html>")
		}
	})
	in := faultd.New(backend, 1)
	in.Add(faultd.Rule{PathContains: "/bad", Percent: 100, Status: 500})
	srv := httptest.NewServer(in)
	defer srv.Close()

	f := &Fetcher{Retry: fastRetry(2)}
	c, err := f.Start(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	var pages, pageErrs int
	for {
		_, err := c.Next(context.Background())
		if err == io.EOF {
			break
		}
		var pe *pipeline.PageError
		if errors.As(err, &pe) {
			pageErrs++
			if !strings.Contains(pe.URI, "/bad") {
				t.Fatalf("page error URI = %q, want /bad", pe.URI)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		pages++
	}
	if pages != 3 { // "/", "/ok1", "/ok2"
		t.Fatalf("pages = %d, want 3", pages)
	}
	if pageErrs != 1 {
		t.Fatalf("page errors surfaced = %d, want 1", pageErrs)
	}
	// The retry layer did attempt the page more than once before
	// recording the failure.
	if in.Injected() < 2 {
		t.Fatalf("injected = %d, want ≥ 2 (retry before giving up)", in.Injected())
	}
}

// TestChaosRetryAfterHonored: a 503 carrying Retry-After delays the
// retry by the server-instructed wait (observed via the retrier clock).
func TestChaosRetryAfterHonored(t *testing.T) {
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "<html><body>ok</body></html>")
	})
	in := faultd.New(backend, 1)
	in.Add(faultd.Rule{Times: 1, Status: 503, RetryAfter: 2 * time.Second})
	srv := httptest.NewServer(in)
	defer srv.Close()

	clk := resilient.NewFakeClock(time.Unix(0, 0))
	f := &Fetcher{Retry: &resilient.Retrier{
		MaxAttempts: 3, MaxDelay: 10 * time.Second, Clock: clk,
		Rand: func() float64 { return 0.5 },
	}}
	if _, err := f.FetchPageContext(context.Background(), srv.URL+"/p"); err != nil {
		t.Fatalf("fetch failed despite retry: %v", err)
	}
	slept := clk.Slept()
	if len(slept) != 1 || slept[0] != 2*time.Second {
		t.Fatalf("slept %v, want [2s] (Retry-After honored)", slept)
	}
}

// TestChaosPartialBodyRetries: a truncated response is transient — the
// retry refetches and gets the full page.
func TestChaosPartialBodyRetries(t *testing.T) {
	body := "<html><body>" + strings.Repeat("x", 4096) + "</body></html>"
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "99999")
		if f, ok := w.(http.Flusher); ok {
			io.WriteString(w, body[:10])
			f.Flush()
		}
		panic(http.ErrAbortHandler) // cut the body mid-flight
	})
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 2 {
			io.WriteString(w, body)
			return
		}
		backend.ServeHTTP(w, r)
	}))
	defer srv.Close()

	f := &Fetcher{Retry: fastRetry(4)}
	p, err := f.FetchPageContext(context.Background(), srv.URL+"/p")
	if err != nil {
		t.Fatalf("fetch failed despite retries: %v", err)
	}
	if p == nil || p.Doc == nil {
		t.Fatal("no page returned")
	}
	if served.Load() != 3 {
		t.Fatalf("served %d requests, want 3 (2 truncated + 1 clean)", served.Load())
	}
}
