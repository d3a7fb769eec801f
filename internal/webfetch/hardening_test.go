package webfetch

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/resilient"
)

// TestFetchTimeout: a page that never finishes its body must not wedge
// the fetch — the per-request timeout cuts it off.
func TestFetchTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		<-release // hold the body open past the client timeout
	}))
	defer ts.Close()
	defer close(release)

	f := &Fetcher{Timeout: 50 * time.Millisecond}
	start := time.Now()
	_, err := f.FetchPageContext(context.Background(), ts.URL+"/slow")
	if err == nil {
		t.Fatal("hung fetch returned no error")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timeout took %v", d)
	}
}

// TestFetchRedirectCap: a redirect loop is cut off at MaxRedirects.
func TestFetchRedirectCap(t *testing.T) {
	var ts *httptest.Server
	n := 0
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n++
		http.Redirect(w, r, fmt.Sprintf("/loop%d", n), http.StatusFound)
	}))
	defer ts.Close()

	f := &Fetcher{MaxRedirects: 3}
	if _, err := f.FetchPageContext(context.Background(), ts.URL+"/loop"); err == nil {
		t.Fatal("redirect loop returned no error")
	}
	if n > 5 {
		t.Fatalf("server saw %d requests; cap of 3 not enforced", n)
	}
}

// TestFetchBodyCapRejects: an oversized page is rejected, not silently
// truncated into a wrong-but-parsable document.
func TestFetchBodyCapRejects(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "<html><body>")
		io.WriteString(w, strings.Repeat("x", 4096))
		io.WriteString(w, "</body></html>")
	}))
	defer ts.Close()

	f := &Fetcher{MaxBody: 1024}
	if _, err := f.FetchPageContext(context.Background(), ts.URL+"/big"); err == nil || !strings.Contains(err.Error(), "exceeds response cap") {
		t.Fatalf("oversized body: err = %v, want response-cap rejection", err)
	}
	// At the cap exactly it still loads.
	f = &Fetcher{MaxBody: 1 << 20}
	if _, err := f.FetchPageContext(context.Background(), ts.URL+"/big"); err != nil {
		t.Fatalf("in-cap body rejected: %v", err)
	}
}

// TestCrawlStreamsIncrementally: Start/Next yields pages one at a time
// and the frontier advances only as pages are pulled — the property the
// pipeline's bounded-memory ingestion rests on.
func TestCrawlStreamsIncrementally(t *testing.T) {
	requests := 0
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		requests++
		io.WriteString(w, `<html><body><a href="/a">a</a><a href="/b">b</a></body></html>`)
	})
	mux.HandleFunc("/a", func(w http.ResponseWriter, r *http.Request) {
		requests++
		io.WriteString(w, `<html><body>leaf a</body></html>`)
	})
	mux.HandleFunc("/b", func(w http.ResponseWriter, r *http.Request) {
		requests++
		io.WriteString(w, `<html><body>leaf b</body></html>`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, err := (&Fetcher{}).Start(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := c.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p1 == nil || requests != 1 {
		t.Fatalf("after first Next: %d requests, want exactly 1", requests)
	}
	var uris []string
	uris = append(uris, p1.URI)
	for {
		p, err := c.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		uris = append(uris, p.URI)
	}
	if len(uris) != 3 {
		t.Fatalf("crawl yielded %d pages (%v), want 3", len(uris), uris)
	}
}

// TestCrawlNextCancel: a cancelled context stops the crawl mid-stream.
func TestCrawlNextCancel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `<html><body><a href="/next">n</a></body></html>`)
	}))
	defer ts.Close()

	c, err := (&Fetcher{}).Start(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := c.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := c.Next(ctx); err != context.Canceled {
		t.Fatalf("Next after cancel: %v, want context.Canceled", err)
	}
}

// cancelOnSleep is a fake clock whose Sleep cancels the crawl first: the
// cancel lands during the Delay between requests.
type cancelOnSleep struct {
	*resilient.FakeClock
	cancel context.CancelFunc
}

func (c cancelOnSleep) Sleep(ctx context.Context, d time.Duration) error {
	c.cancel()
	return c.FakeClock.Sleep(ctx, d)
}

// TestCrawlDelayUsesClockAndContext: the pause between requests is
// taken on the Retry clock and ends with the crawl's context.
func TestCrawlDelayUsesClockAndContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `<html><body><a href="/a">a</a><a href="/b">b</a></body></html>`)
	}))
	defer ts.Close()

	// An hour's delay per page on the fake clock costs no wall time.
	fake := resilient.NewFakeClock(time.Unix(0, 0))
	f := &Fetcher{MaxPages: 3, Delay: time.Hour, Retry: &resilient.Retrier{Clock: fake}}
	pages, err := f.Crawl(ts.URL + "/")
	if err != nil || len(pages) != 3 {
		t.Fatalf("crawl = %d pages, %v; want 3", len(pages), err)
	}
	if got := fake.Slept(); len(got) != 3 || got[0] != time.Hour {
		t.Fatalf("slept %v, want three 1h delays on the Retry clock", got)
	}

	// A crawl cancelled during its delay returns promptly with ctx's error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f = &Fetcher{Delay: time.Hour, Retry: &resilient.Retrier{Clock: cancelOnSleep{resilient.NewFakeClock(time.Unix(0, 0)), cancel}}}
	c, err := f.Start(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Next(ctx); err != context.Canceled {
		t.Fatalf("Next cancelled in its delay = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled Next took %v", d)
	}
}
