// Package webfetch supplies the page-gathering step that precedes the
// paper's pipeline (the "Web site" input of Figure 1): a polite,
// same-host breadth-first crawler that turns a live site into the page
// set the clusterer consumes, and an http.Handler that serves the
// synthetic corpus as a real Web site so the whole pipeline — fetch,
// cluster, analyze, extract — runs over HTTP exactly as Retrozilla's
// Mozilla host would see it.
package webfetch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/pipeline"
	"repro/internal/resilient"
)

// errTooManyRedirects marks a redirect-cap abort so it classifies as
// permanent: a redirect loop does not heal on retry.
var errTooManyRedirects = errors.New("too many redirects")

// hostConcurrency caps in-flight requests per origin host.
const hostConcurrency = 8

// Fetcher crawls a site breadth-first, restricted to the start URL's
// host. Every request is bounded three ways — per-request timeout,
// redirect cap, response-size cap — so a hostile or broken site can stall
// or bloat one page fetch, never a whole ingestion run. On top of the
// bounds sits the resilience layer: transient failures (timeouts,
// resets, 408/429/5xx) retry with capped jittered backoff, a per-host
// circuit breaker stops hammering dead origins, and a per-host
// concurrency cap keeps one slow site from absorbing every worker.
type Fetcher struct {
	// MaxPages bounds the crawl (default 200).
	MaxPages int
	// MaxBody bounds each response body in bytes (default 4 MiB).
	// Responses larger than the cap are rejected, not truncated — a
	// half-read page would extract to a wrong-but-plausible record.
	MaxBody int64
	// Timeout bounds one request from dial to last body byte (default
	// 15s; negative disables).
	Timeout time.Duration
	// MaxRedirects caps redirects per request (default 5; negative
	// forbids redirects entirely).
	MaxRedirects int
	// Delay is an optional pause between requests, taken on the Retry
	// clock and cut short when the crawl's context is done.
	Delay time.Duration

	// Retry governs re-attempts of transient failures (default: 3
	// attempts, 100ms base, 5s cap, full jitter). Fetches are GETs —
	// idempotent — so every transient failure is safe to mark.
	Retry *resilient.Retrier
	// Breakers holds the per-host circuit breakers (default: a fresh
	// set with resilient.BreakerConfig defaults). Share one set across
	// fetchers talking to the same origins.
	Breakers *resilient.BreakerSet
	// OnRetry, when non-nil, observes every scheduled retry.
	OnRetry func(host string)
	// OnOutcome, when non-nil, observes every finished fetch with one
	// of "ok", "transient" (retries exhausted), "permanent",
	// "breaker_open".
	OnOutcome func(host, outcome string)

	clientOnce  sync.Once
	builtClient *http.Client // applies the MaxRedirects cap
	brOnce      sync.Once
	builtBrs    *resilient.BreakerSet
	limOnce     sync.Once
	builtLim    *resilient.KeyedLimiter
}

func (f *Fetcher) client() *http.Client {
	f.clientOnce.Do(func() {
		f.builtClient = &http.Client{
			CheckRedirect: func(req *http.Request, via []*http.Request) error {
				if len(via) > f.maxRedirects() {
					return fmt.Errorf("stopped after %d redirects: %w",
						f.maxRedirects(), errTooManyRedirects)
				}
				return nil
			},
		}
	})
	return f.builtClient
}

func (f *Fetcher) breakers() *resilient.BreakerSet {
	if f.Breakers != nil {
		return f.Breakers
	}
	f.brOnce.Do(func() {
		f.builtBrs = resilient.NewBreakerSet(resilient.BreakerConfig{})
	})
	return f.builtBrs
}

func (f *Fetcher) limiter() *resilient.KeyedLimiter {
	f.limOnce.Do(func() {
		f.builtLim = resilient.NewKeyedLimiter(hostConcurrency)
	})
	return f.builtLim
}

// BreakerStates snapshots every host breaker's state, sorted by host,
// for the metrics endpoint.
func (f *Fetcher) BreakerStates() []resilient.KeyState {
	return f.breakers().States()
}

func (f *Fetcher) maxPages() int {
	if f.MaxPages > 0 {
		return f.MaxPages
	}
	return 200
}

func (f *Fetcher) maxBody() int64 {
	if f.MaxBody > 0 {
		return f.MaxBody
	}
	return 4 << 20
}

func (f *Fetcher) timeout() time.Duration {
	if f.Timeout < 0 {
		return 0
	}
	if f.Timeout > 0 {
		return f.Timeout
	}
	return 15 * time.Second
}

func (f *Fetcher) maxRedirects() int {
	if f.MaxRedirects < 0 {
		return 0
	}
	if f.MaxRedirects > 0 {
		return f.MaxRedirects
	}
	return 5
}

// Crawl is a breadth-first crawl in progress: a frontier of discovered
// URLs and the dedup set. Next returns pages one at a time, so a caller
// can stream a site of any size without holding more than one page —
// this is the pipeline's crawl source.
type Crawl struct {
	f     *Fetcher
	host  string
	seen  map[string]bool
	queue []*url.URL
	pages int
	first bool
}

// Start begins a breadth-first crawl at startURL. Fetching starts on the
// first Next call.
func (f *Fetcher) Start(startURL string) (*Crawl, error) {
	start, err := url.Parse(startURL)
	if err != nil {
		return nil, fmt.Errorf("webfetch: bad start URL: %w", err)
	}
	if start.Host == "" {
		return nil, fmt.Errorf("webfetch: start URL %q has no host", startURL)
	}
	return &Crawl{
		f:     f,
		host:  start.Host,
		seen:  map[string]bool{canonical(start): true},
		queue: []*url.URL{start},
		first: true,
	}, nil
}

// Next fetches and returns the next page of the crawl, following
// same-host links found in A/@href attributes. It returns io.EOF when
// MaxPages pages have been returned or the frontier is empty. A page
// that still fails after retries is never silently dropped: Next
// returns a *pipeline.PageError recording the URL and the crawl
// continues on the following call. An unreachable start page aborts the
// crawl.
func (c *Crawl) Next(ctx context.Context) (*core.Page, error) {
	for len(c.queue) > 0 && c.pages < c.f.maxPages() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		u := c.queue[0]
		c.queue = c.queue[1:]
		doc, err := c.f.fetch(ctx, u)
		if err != nil {
			if c.first {
				return nil, err
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, &pipeline.PageError{URI: u.String(), Err: err}
		}
		c.first = false
		c.pages++
		for _, link := range Links(doc, u) {
			if link.Host != c.host {
				continue
			}
			key := canonical(link)
			if c.seen[key] {
				continue
			}
			c.seen[key] = true
			c.queue = append(c.queue, link)
		}
		if c.f.Delay > 0 {
			if err := c.f.clock().Sleep(ctx, c.f.Delay); err != nil {
				return nil, err
			}
		}
		return &core.Page{URI: u.String(), Doc: doc}, nil
	}
	return nil, io.EOF
}

// Crawl gathers a whole site into memory: Start + Next until EOF,
// skipping pages that failed after retries. Use Start directly (or
// pipeline.CrawlSource) to stream, or to see the per-page errors.
func (f *Fetcher) Crawl(startURL string) ([]*core.Page, error) {
	c, err := f.Start(startURL)
	if err != nil {
		return nil, err
	}
	var pages []*core.Page
	for {
		p, err := c.Next(context.Background())
		if err == io.EOF {
			return pages, nil
		}
		var pe *pipeline.PageError
		if errors.As(err, &pe) {
			continue
		}
		if err != nil {
			return nil, err
		}
		pages = append(pages, p)
	}
}

// FetchPageContext fetches and parses a single page — the
// online-extraction entry point: a service that already knows which page
// it wants skips the crawl and goes straight from URL to parsed
// core.Page. ctx bounds the fetch on top of the fetcher's own
// per-request timeout.
func (f *Fetcher) FetchPageContext(ctx context.Context, pageURL string) (*core.Page, error) {
	u, err := url.Parse(pageURL)
	if err != nil {
		return nil, fmt.Errorf("webfetch: bad URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("webfetch: URL %q is not http(s)", pageURL)
	}
	doc, err := f.fetch(ctx, u)
	if err != nil {
		return nil, err
	}
	return &core.Page{URI: u.String(), Doc: doc}, nil
}

// fetch is the resilient fetch path: per-host admission (concurrency
// cap), breaker check, then fetchOnce under the Retrier — transient
// failures retry, and only transient-class failures count against the
// host's breaker (a 404 is the host working fine).
func (f *Fetcher) fetch(ctx context.Context, u *url.URL) (*dom.Node, error) {
	host := u.Host
	release, err := f.limiter().Acquire(ctx, host)
	if err != nil {
		return nil, fmt.Errorf("webfetch: GET %s: %w", u, err)
	}
	defer release()

	var doc *dom.Node
	err = f.retrierFor(host).Do(ctx, func(ctx context.Context) error {
		brRelease, err := f.breakers().For(host).Acquire()
		if err != nil {
			// *OpenError is unmarked (permanent): the retry loop must
			// not spin against a circuit the breaker just opened.
			return fmt.Errorf("webfetch: GET %s: %w", u, err)
		}
		var ferr error
		doc, ferr = f.fetchOnce(ctx, u)
		brRelease(ferr == nil || !resilient.IsTransient(ferr))
		return ferr
	})
	f.recordOutcome(host, err)
	if err != nil {
		return nil, err
	}
	return doc, nil
}

// retrierFor adapts the configured Retrier to report retries for host
// through the OnRetry hook. The copy is cheap: Retrier is a small value
// type.
func (f *Fetcher) retrierFor(host string) *resilient.Retrier {
	var r resilient.Retrier
	if f.Retry != nil {
		r = *f.Retry
	}
	if f.OnRetry != nil {
		inner := r.OnRetry
		hook := f.OnRetry
		r.OnRetry = func(attempt int, delay time.Duration, err error) {
			if inner != nil {
				inner(attempt, delay, err)
			}
			hook(host)
		}
	}
	return &r
}

// clock is the Retrier's clock, which also times the crawl Delay.
func (f *Fetcher) clock() resilient.Clock {
	if f.Retry != nil && f.Retry.Clock != nil {
		return f.Retry.Clock
	}
	return resilient.RealClock()
}

// recordOutcome classifies a finished fetch for the OnOutcome hook.
func (f *Fetcher) recordOutcome(host string, err error) {
	if f.OnOutcome == nil {
		return
	}
	var oe *resilient.OpenError
	switch {
	case err == nil:
		f.OnOutcome(host, "ok")
	case errors.As(err, &oe):
		f.OnOutcome(host, "breaker_open")
	case resilient.IsTransient(err):
		f.OnOutcome(host, "transient")
	default:
		f.OnOutcome(host, "permanent")
	}
}

// retryableStatus reports whether an HTTP status indicts a transient
// server-side condition worth retrying an idempotent GET for.
func retryableStatus(code int) bool {
	return code == http.StatusRequestTimeout || // 408
		code == http.StatusTooManyRequests || // 429
		code >= 500
}

// parseRetryAfter reads an integer-seconds Retry-After header value.
func parseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// fetchOnce performs one bounded request and classifies its failure:
// timeouts, transport errors, and 408/429/5xx are marked Transient
// (GETs are idempotent, so re-attempting is safe); redirect loops,
// other statuses, cap violations, and failures after the caller's
// context died are permanent.
func (f *Fetcher) fetchOnce(parent context.Context, u *url.URL) (*dom.Node, error) {
	ctx := parent
	if t := f.timeout(); t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, fmt.Errorf("webfetch: GET %s: %w", u, err)
	}
	resp, err := f.client().Do(req)
	if err != nil {
		err = fmt.Errorf("webfetch: GET %s: %w", u, err)
		if parent.Err() != nil || errors.Is(err, errTooManyRedirects) {
			return nil, err
		}
		return nil, resilient.Transient(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("webfetch: GET %s: status %d", u, resp.StatusCode)
		if !retryableStatus(resp.StatusCode) {
			return nil, err
		}
		if after, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
			return nil, resilient.TransientAfter(err, after)
		}
		return nil, resilient.Transient(err)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, f.maxBody()+1))
	if err != nil {
		err = fmt.Errorf("webfetch: reading %s: %w", u, err)
		if parent.Err() != nil {
			return nil, err
		}
		return nil, resilient.Transient(err)
	}
	if int64(len(body)) > f.maxBody() {
		return nil, fmt.Errorf("webfetch: %s exceeds response cap %d bytes", u, f.maxBody())
	}
	return dom.Parse(string(body)), nil
}

// canonical normalizes a URL for deduplication: scheme+host+path+query,
// fragment dropped, trailing slash preserved (sites distinguish them).
func canonical(u *url.URL) string {
	c := *u
	c.Fragment = ""
	return c.String()
}

// Links extracts the resolved target URLs of every <A href> under doc,
// in document order, dropping unparsable and non-HTTP targets.
func Links(doc *dom.Node, base *url.URL) []*url.URL {
	var out []*url.URL
	dom.Walk(doc, func(n *dom.Node) bool {
		if n.Type == dom.ElementNode && n.Data == "A" {
			if href, ok := n.AttrVal("href"); ok && href != "" {
				if u, err := base.Parse(href); err == nil &&
					(u.Scheme == "http" || u.Scheme == "https") {
					out = append(out, u)
				}
			}
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------------------
// Serving synthetic sites.

// SiteHandler serves corpus clusters as a browsable site: every page at
// its URI's path, plus an index page per cluster and a root index — so a
// crawl starting at "/" reaches every page. SetPages swaps served pages
// at runtime, which is how tests (and the drift quickstart) simulate a
// site evolving under a running extraction service.
type SiteHandler struct {
	mu       sync.RWMutex
	byPath   map[string]*core.Page
	clusters []*corpus.Cluster
}

// NewSiteHandler builds the handler. Pages whose URIs share a path are
// rejected.
func NewSiteHandler(clusters ...*corpus.Cluster) (*SiteHandler, error) {
	h := &SiteHandler{byPath: map[string]*core.Page{}, clusters: clusters}
	for _, cl := range clusters {
		for _, p := range cl.Pages {
			u, err := url.Parse(p.URI)
			if err != nil {
				return nil, fmt.Errorf("webfetch: bad page URI %q: %w", p.URI, err)
			}
			path := u.Path
			if path == "" {
				path = "/"
			}
			if _, dup := h.byPath[path]; dup {
				return nil, fmt.Errorf("webfetch: duplicate page path %q", path)
			}
			h.byPath[path] = p
		}
	}
	return h, nil
}

// DefaultSite assembles the stock synthetic multi-cluster site (movies,
// books, stocks — the servesite command's corpus) and returns the
// handler together with its clusters, so callers can build rules against
// the same ground truth the site serves.
func DefaultSite(seed int64, pagesPerCluster int) (*SiteHandler, []*corpus.Cluster, error) {
	clusters := []*corpus.Cluster{
		corpus.GenerateMovies(corpus.DefaultMovieProfile(seed, pagesPerCluster)),
		corpus.GenerateBooks(corpus.DefaultBookProfile(seed+1, pagesPerCluster)),
		corpus.GenerateStocks(corpus.DefaultStockProfile(seed+2, pagesPerCluster)),
	}
	h, err := NewSiteHandler(clusters...)
	if err != nil {
		return nil, nil, err
	}
	return h, clusters, nil
}

// SetPages atomically replaces the served copy of each given page,
// matched by URI path. Pages at paths the site does not already serve
// are an error — the site's link structure must stay intact under page
// evolution.
func (h *SiteHandler) SetPages(pages []*core.Page) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range pages {
		u, err := url.Parse(p.URI)
		if err != nil {
			return fmt.Errorf("webfetch: bad page URI %q: %w", p.URI, err)
		}
		path := u.Path
		if path == "" {
			path = "/"
		}
		if _, ok := h.byPath[path]; !ok {
			return fmt.Errorf("webfetch: no served page at %q", path)
		}
		h.byPath[path] = p
	}
	return nil
}

// ServeHTTP implements http.Handler.
func (h *SiteHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/" {
		h.serveIndex(w)
		return
	}
	h.mu.RLock()
	page, ok := h.byPath[r.URL.Path]
	h.mu.RUnlock()
	if ok {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = io.WriteString(w, dom.Render(page.Doc))
		return
	}
	http.NotFound(w, r)
}

// serveIndex emits a root page linking every cluster page (grouped per
// cluster), giving the crawler a complete frontier.
func (h *SiteHandler) serveIndex(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString("<html><head><title>site index</title></head><body><h1>Index</h1>")
	h.mu.RLock()
	paths := make([]string, 0, len(h.byPath))
	for p := range h.byPath {
		paths = append(paths, p)
	}
	h.mu.RUnlock()
	sort.Strings(paths)
	b.WriteString("<ul>")
	for _, p := range paths {
		fmt.Fprintf(&b, `<li><a href="%s">%s</a></li>`, p, p)
	}
	b.WriteString("</ul></body></html>")
	_, _ = io.WriteString(w, b.String())
}

// PageCount returns the number of servable pages.
func (h *SiteHandler) PageCount() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.byPath)
}
