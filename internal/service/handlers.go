package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/extract"
	"repro/internal/induct"
	"repro/internal/lifecycle"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/resilient"
	"repro/internal/rule"
	"repro/internal/store"
	"repro/internal/streamx"
	"repro/internal/webfetch"
)

// Server is the extractd HTTP service: a repository registry, a pool
// that bounds extraction concurrency, metrics, and the handlers tying
// them together. Its endpoints are the entries of routes.
type Server struct {
	Registry *Registry
	Pool     *Pool
	Metrics  *Metrics
	// Fetcher serves /extract/url. Nil disables URL fetching (for
	// deployments that must not make outbound requests).
	Fetcher *webfetch.Fetcher
	// AllowedHosts, when non-empty, restricts /extract/url targets to
	// these hosts (exact match on URL host, port included). An open
	// fetch endpoint is an SSRF hole — a caller could point the daemon
	// at internal addresses — so production deployments should either
	// set this or disable Fetcher.
	AllowedHosts []string
	// MaxBody bounds request bodies in bytes (default 8 MiB). Larger
	// requests are rejected with 413, never truncated.
	MaxBody int64
	// PageCache holds parsed documents keyed by body hash, letting
	// repeated extractions of identical HTML skip dom.Parse. Nil disables
	// caching. Hits and misses are surfaced in /metrics.
	PageCache *PageCache
	// Lifecycle tunes the per-repository drift monitors (zero value:
	// lifecycle defaults).
	Lifecycle lifecycle.Config
	// AutoRepair, when true, reacts to a tripped drift alarm by running
	// repair → stage → shadow-evaluate → promote without an operator.
	AutoRepair bool
	// Router classifies pages to repositories when a request names none:
	// repositories loaded with a cluster signature are registered here,
	// and /extract, /extract/url and /ingest fall back to it. Never nil
	// after NewServer.
	Router *cluster.Router
	// RouterLearn, when true, folds cleanly extracted explicitly-targeted
	// pages on the single-page endpoints (/extract, /extract/url) into
	// the target repository's routing signature, until it has absorbed
	// routerLearnCap pages — repositories loaded without a signature
	// become routable once explicit traffic has flowed.
	RouterLearn bool
	// Induct, when non-nil, is the wrapper-induction engine: unrouted
	// pages from /extract, /extract/url and /ingest are captured into
	// its buffer instead of being dropped, and the /induce and /jobs
	// endpoints drive background rule building over them. Enable with
	// EnableInduction; nil disables the endpoints (501).
	Induct *induct.Engine
	// Store, when non-nil, is the durability layer: AttachStore restores
	// state on boot and journals every registry, router and induction
	// mutation through it. Nil means a memory-only daemon (the pre-PR-7
	// behaviour). Set via AttachStore, not directly.
	Store *store.Store
	// Log receives the server's structured logs: one request line per
	// HTTP exchange (method, route, repo, status, duration, trace ID),
	// registry stage/promote/rollback events, drift alarms and induction
	// job transitions. Nil discards everything — the extractd daemon
	// installs a real logger via obs.NewLogger; embedded servers and
	// tests stay quiet by default.
	Log *slog.Logger
	// RequestTimeout, when > 0, bounds every request: handlers run under
	// a context.WithTimeout-derived deadline. The streaming routes
	// (/ingest, /changes) are exempt — there the deadline applies per
	// page, in the extract stage.
	RequestTimeout time.Duration
	// AdmissionWait bounds how long a request waits for a pool slot
	// before shedding with 503 + Retry-After (default 2s; negative
	// waits indefinitely, the pre-resilience behaviour).
	AdmissionWait time.Duration
	// Scheduler, when non-nil, is the drift-adaptive recrawl scheduler:
	// the /schedules endpoints manage cadence, /changes streams the
	// change feed, and tripped drift alarms snap the repo's schedule
	// back to its minimum interval. Set via EnableMonitor, not
	// directly; nil disables the endpoints (501).
	Scheduler *monitor.Scheduler

	monMu    sync.Mutex
	monitors map[string]*lifecycle.Monitor
}

// logger returns the configured logger or a discarding one.
func (s *Server) logger() *slog.Logger {
	if s.Log != nil {
		return s.Log
	}
	return obs.NopLogger()
}

// NewServer assembles a server with a fresh registry and metrics and a
// bounded pool. workers ≤ 0 defaults to GOMAXPROCS (extraction is
// CPU-bound); queue ≤ 0 defaults to 4× workers. fetcher may be nil to
// disable /extract/url.
func NewServer(workers, queue int, fetcher *webfetch.Fetcher) *Server {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue <= 0 {
		queue = 4 * workers
	}
	s := &Server{
		Registry:  NewRegistry(),
		Pool:      NewPool(workers, queue),
		Metrics:   NewMetrics(),
		Fetcher:   fetcher,
		PageCache: NewPageCache(DefaultPageCacheSize),
		Router:    cluster.NewRouter(0),
	}
	s.wireResilience()
	return s
}

// wireResilience points the failure hooks of the server's components at
// the metrics surface: pool panics, fetch retries and per-host fetch
// outcomes all become counters instead of vanishing.
func (s *Server) wireResilience() {
	if s.Pool != nil {
		s.Pool.OnPanic = func(pe *resilient.PanicError) {
			s.Metrics.PanicRecovered("pool")
			s.logger().LogAttrs(context.Background(), slog.LevelError, "pool.panic",
				slog.String("error", pe.Error()),
				slog.String("stack", string(pe.Stack)))
		}
	}
	if s.Fetcher != nil {
		s.Fetcher.OnRetry = func(host string) { s.Metrics.FetchRetry() }
		s.Fetcher.OnOutcome = func(host, outcome string) { s.Metrics.FetchOutcome(host, outcome) }
	}
}

// pipelinePanic is the pipeline.Config.OnPanic hook of runPipeline: the
// quarantined panic becomes a counter and an error log, attributed to
// the stage ("classify" or "extract") it hit.
func (s *Server) pipelinePanic(stage string, pe *resilient.PanicError) {
	s.Metrics.PanicRecovered(stage)
	s.logger().LogAttrs(context.Background(), slog.LevelError, "pipeline.panic",
		slog.String("stage", stage),
		slog.String("error", pe.Error()),
		slog.String("stack", string(pe.Stack)))
}

// admissionWait is how long extraction requests may wait for a pool slot
// before being shed (503 + Retry-After). Zero means the 2s default;
// negative disables shedding and blocks like the pre-resilience server.
func (s *Server) admissionWait() time.Duration {
	if s.AdmissionWait != 0 {
		return s.AdmissionWait
	}
	return 2 * time.Second
}

// LoadRepo validates, compiles and activates a repository (see
// Registry.Load) and wires the surrounding machinery: the repository's
// cluster signature (if any) is registered with the page router, and the
// repo's drift window re-arms — a fresh version earns a fresh failure
// window. Both the /repos handler and daemon preloading go through here.
func (s *Server) LoadRepo(name string, repo *rule.Repository) (*RepoEntry, error) {
	return s.loadRepo(context.Background(), name, repo)
}

// loadRepo is LoadRepo with the caller's context, so hot-reload requests
// log under their trace ID.
func (s *Server) loadRepo(ctx context.Context, name string, repo *rule.Repository) (*RepoEntry, error) {
	e, err := s.Registry.Load(name, repo)
	if err != nil {
		return nil, err
	}
	if repo.Signature != nil {
		s.Router.Register(e.Name, repo.Signature)
	}
	s.monitor(e.Name).ResetWindow()
	s.logger().LogAttrs(ctx, slog.LevelInfo, "registry.load",
		slog.String("repo", e.Name), slog.Int("version", e.Version),
		slog.Int("components", len(e.Repo.Rules)),
		slog.Bool("routable", repo.Signature != nil))
	return e, nil
}

// RemoveRepo unloads a repository, its router signature and its drift
// monitor, reporting whether it existed.
func (s *Server) RemoveRepo(name string) bool {
	if !s.Registry.Remove(name) {
		return false
	}
	s.Router.Unregister(name)
	s.dropMonitor(name)
	s.logger().LogAttrs(context.Background(), slog.LevelInfo, "registry.remove",
		slog.String("repo", name))
	return true
}

// DefaultPageCacheSize is the parsed-document cache capacity NewServer
// installs; override by replacing Server.PageCache (nil disables).
const DefaultPageCacheSize = 256

// Close stops the pool admitting extractions and waits for the
// admitted ones to finish.
func (s *Server) Close() { s.Pool.Close() }

func (s *Server) maxBody() int64 {
	if s.MaxBody > 0 {
		return s.MaxBody
	}
	return 8 << 20
}

// route is one entry of the extractd API.
type route struct {
	// pattern is the ServeMux pattern, method included: the mux answers
	// a request for the path with another method with 405 and Allow.
	pattern string
	// name is both the route's extractd_requests_total{endpoint} value
	// and its pprof "route" label; routes sharing a name share a counter.
	name   string
	flags  routeFlags
	handle func(s *Server, w http.ResponseWriter, r *http.Request) error
}

type routeFlags uint8

const (
	// streams exempts a route from RequestTimeout: a whole-site /ingest
	// or a followed /changes tail legitimately outlives any fixed budget,
	// so there the deadline applies per extracted page (see extractor).
	streams routeFlags = 1 << iota
	// uncounted keeps a route out of the request counters: reading
	// metrics is not itself traffic.
	uncounted
)

// routes declares every extractd endpoint once; Handler registers them
// in this order.
var routes = []route{
	{"GET /repos", "repos.list", 0, (*Server).handleRepoList},
	{"POST /repos", "repos.load", 0, (*Server).handleRepoLoad},
	{"DELETE /repos", "repos.delete", 0, (*Server).handleRepoDelete},
	{"GET /repos/{name}/health", "repos.health", 0, (*Server).handleRepoHealth},
	{"GET /repos/{name}/versions", "repos.versions", 0, (*Server).handleRepoVersions},
	{"POST /repos/{name}/repair", "repos.repair", 0, (*Server).handleRepoRepair},
	{"POST /repos/{name}/rollback", "repos.rollback", 0, (*Server).handleRepoRollback},
	{"POST /extract", "extract", 0, (*Server).handleExtract},
	{"POST /extract/batch", "extract.batch", 0, (*Server).handleExtractBatch},
	{"POST /extract/url", "extract.url", 0, (*Server).handleExtractURL},
	{"POST /ingest", "ingest", streams, (*Server).handleIngest},
	{"POST /induce", "induce", 0, (*Server).handleInduce},
	{"GET /jobs", "jobs.list", 0, (*Server).handleJobs},
	{"GET /jobs/{id}", "jobs.get", 0, (*Server).handleJob},
	{"POST /jobs/{id}/promote", "jobs.promote", 0, (*Server).handleJobPromote},
	{"POST /jobs/{id}/cancel", "jobs.cancel", 0, (*Server).handleJobCancel},
	{"POST /schedules", "schedules", 0, (*Server).handleScheduleCreate},
	{"GET /schedules", "schedules", 0, (*Server).handleScheduleList},
	{"POST /schedules/{repo}/pause", "schedules", 0, (*Server).handleSchedulePause},
	{"POST /schedules/{repo}/resume", "schedules", 0, (*Server).handleScheduleResume},
	{"DELETE /schedules/{repo}", "schedules", 0, (*Server).handleScheduleDelete},
	{"GET /changes", "changes", streams, (*Server).handleChanges},
	{"GET /healthz", "healthz", 0, (*Server).handleHealthz},
	{"GET /metrics", "metrics", uncounted, (*Server).handleMetrics},
}

// Handler returns the routed http.Handler, wrapped in the request
// observability envelope (trace IDs, request logs, panic isolation).
func (s *Server) Handler() http.Handler { return s.instrument(s.routeMux(routes)) }

// routeMux registers every entry of table on a fresh mux through serve.
func (s *Server) routeMux(table []route) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range table {
		mux.Handle(rt.pattern, s.serve(rt))
	}
	return mux
}

// serve runs one route's handler under the request deadline (unless the
// route streams) and its pprof "route" label — extraction runs on this
// goroutine or on a pipeline worker it started, which inherits the
// label, so CPU profiles break down by route. The outcome is counted
// under the route's name, and a returned error is rendered as a JSON
// {"error"} with the httpError's status (500 for any other error),
// unless the handler already reported it in-band (streamedError).
func (s *Server) serve(rt route) http.Handler {
	labels := pprof.Labels("route", rt.name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if s.RequestTimeout > 0 && rt.flags&streams == 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.RequestTimeout)
			defer cancel()
		}
		var err error
		pprof.Do(ctx, labels, func(ctx context.Context) {
			err = rt.handle(s, w, r.WithContext(ctx))
		})
		if rt.flags&uncounted == 0 {
			s.Metrics.Request(rt.name, err != nil)
		}
		if _, streamed := err.(streamedError); err == nil || streamed {
			return
		}
		status := http.StatusInternalServerError
		if he, ok := err.(*httpError); ok {
			status = he.status
			if he.retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(max(int(he.retryAfter/time.Second), 1)))
			}
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
	})
}

// statusWriter records the response status and byte count for the
// request log without getting in the way of streaming: Flush passes
// through for NDJSON responses and Unwrap keeps http.ResponseController
// (EnableFullDuplex on /ingest) working.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush implements http.Flusher when the underlying writer does.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps the mux with the per-request observability envelope,
// matched route or not:
//
//   - a trace ID is adopted from a well-formed X-Trace-Id request header
//     or minted fresh, echoed in the X-Trace-Id response header, and
//     carried on the request context — pipeline stages, NDJSON result
//     lines, induction captures and every log line under this request
//     share it;
//   - a handler panic is recovered into a 500, so it cannot kill the
//     daemon;
//   - one structured request log line is emitted per exchange with
//     method, route, status, body bytes and duration.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Trace-Id")
		if !obs.ValidTraceID(id) {
			id = obs.NewTraceID()
		}
		w.Header().Set("X-Trace-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		ctx := obs.WithTrace(r.Context(), id)
		// The mux stamps the matched pattern onto the request it serves —
		// the request log wants that pattern, not the raw path.
		served := r.WithContext(ctx)
		func() {
			// http.ErrAbortHandler is the stdlib's sanctioned way to abort
			// a response and must keep propagating.
			defer func() {
				v := recover()
				if v == nil {
					return
				}
				if v == http.ErrAbortHandler {
					panic(v)
				}
				pe := &resilient.PanicError{Val: v, Stack: debug.Stack()}
				s.Metrics.PanicRecovered("handler")
				s.logger().LogAttrs(ctx, slog.LevelError, "handler.panic",
					slog.String("path", r.URL.Path),
					slog.String("error", pe.Error()),
					slog.String("stack", string(pe.Stack)))
				if !sw.wrote {
					writeJSON(sw, http.StatusInternalServerError,
						map[string]string{"error": "internal error: " + pe.Error()})
				}
			}()
			next.ServeHTTP(sw, served)
		}()
		route := served.Pattern
		if route == "" {
			route = r.URL.Path
		}
		level := slog.LevelInfo
		if sw.status >= http.StatusInternalServerError {
			level = slog.LevelError
		} else if sw.status >= http.StatusBadRequest {
			level = slog.LevelWarn
		}
		attrs := make([]slog.Attr, 0, 7)
		attrs = append(attrs,
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("duration", time.Since(start)))
		if repo := r.URL.Query().Get("repo"); repo != "" {
			attrs = append(attrs, slog.String("repo", repo))
		}
		s.logger().LogAttrs(ctx, level, "request", attrs...)
	})
}

// ---------------------------------------------------------------------------
// Response plumbing.

type httpError struct {
	status int
	msg    string
	// cause, when set, makes the error transparent to errors.Is — the
	// unrouted error wraps pipeline.ErrUnrouted so pipeline stats and
	// callers classify it without string matching.
	cause error
	// retryAfter, when > 0, emits a Retry-After header with the error
	// response — load-shed 503s tell well-behaved clients when to come
	// back instead of letting them hammer a saturated server.
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

func (e *httpError) Unwrap() error { return e.cause }

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// readBody reads a request body up to the server's limit, rejecting —
// not truncating — anything larger: a silently cut-off HTML page would
// extract to a wrong-but-200 record. A declared Content-Length within the
// limit sizes the buffer up front, one byte over so the read that meets
// EOF needs no growth; otherwise the buffer doubles. Either way it never
// holds more than limit+1 bytes, the one byte that proves a body too big.
func (s *Server) readBody(r *http.Request) ([]byte, error) {
	limit := s.maxBody()
	size := int64(512)
	if n := r.ContentLength; n >= 0 && n <= limit {
		size = n + 1
	}
	body := make([]byte, 0, min(size, limit+1))
	for int64(len(body)) <= limit {
		if len(body) == cap(body) {
			grown := make([]byte, len(body), min(2*int64(len(body)), limit+1))
			copy(grown, body)
			body = grown
		}
		n, err := r.Body.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, errf(http.StatusBadRequest, "reading body: %v", err)
		}
	}
	if int64(len(body)) > limit {
		return nil, errf(http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", limit)
	}
	return body, nil
}

// jsonBufPool recycles response-encode buffers so the steady-state JSON
// path performs one Write per response instead of growing a fresh buffer
// inside the encoder for every request.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		jsonBufPool.Put(buf)
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	// Don't let one huge page response pin a giant buffer in the pool.
	if buf.Cap() <= 1<<20 {
		jsonBufPool.Put(buf)
	}
}

// streamedError is a run error a streaming handler already reported
// in-band, after its response started: serve counts it but writes
// neither a status nor a body.
type streamedError struct{ error }

// ---------------------------------------------------------------------------
// Repository management.

type repoInfo struct {
	Name        string   `json:"name"`
	Cluster     string   `json:"cluster"`
	Components  []string `json:"components"`
	Version     int      `json:"version"`
	Generation  int      `json:"generation"`
	PageElement string   `json:"pageElement"`
}

func info(e *RepoEntry) repoInfo {
	return repoInfo{
		Name:        e.Name,
		Cluster:     e.Repo.Cluster,
		Components:  e.Repo.ComponentNames(),
		Version:     e.Version,
		Generation:  e.Generation,
		PageElement: e.Repo.PageElementName(),
	}
}

func (s *Server) handleRepoList(w http.ResponseWriter, r *http.Request) error {
	entries := s.Registry.List()
	infos := make([]repoInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, info(e))
	}
	writeJSON(w, http.StatusOK, map[string]any{"repos": infos})
	return nil
}

func (s *Server) handleRepoLoad(w http.ResponseWriter, r *http.Request) error {
	body, err := s.readBody(r)
	if err != nil {
		return err
	}
	repo, err := rule.Parse(body)
	if err != nil {
		return errf(http.StatusUnprocessableEntity, "%v", err)
	}
	e, err := s.loadRepo(r.Context(), r.URL.Query().Get("name"), repo)
	if err != nil {
		return errf(http.StatusUnprocessableEntity, "%v", err)
	}
	writeJSON(w, http.StatusOK, info(e))
	return nil
}

func (s *Server) handleRepoDelete(w http.ResponseWriter, r *http.Request) error {
	name := r.URL.Query().Get("name")
	if name == "" {
		return errf(http.StatusBadRequest, "name parameter required")
	}
	if !s.RemoveRepo(name) {
		return errf(http.StatusNotFound, "repository %q not loaded", name)
	}
	writeJSON(w, http.StatusOK, map[string]string{"removed": name})
	return nil
}

// ---------------------------------------------------------------------------
// Extraction.

// lookupRepo resolves an explicitly named repository (?repo=).
func (s *Server) lookupRepo(name string) (*RepoEntry, error) {
	e, ok := s.Registry.Get(name)
	if !ok {
		return nil, errf(http.StatusNotFound, "repository %q not loaded", name)
	}
	return e, nil
}

// fingerprintPage is the routing fingerprint pass; a variable so tests
// can count how often a page is fingerprinted.
var fingerprintPage = streamx.FingerprintPage

// routePage classifies a page to a loaded repository via the router —
// the path taken when a request names no repository. Outcomes feed the
// router metrics: hit (routed), unrouted (below threshold), miss (no
// routable signatures, or a stale signature for an unloaded repo). ctx
// carries the request trace ID into induction captures.
func (s *Server) routePage(ctx context.Context, page *core.Page) (*RepoEntry, float64, error) {
	if s.Router == nil || s.Router.Len() == 0 {
		s.Metrics.Router(RouterMiss)
		return nil, 0, errf(http.StatusBadRequest,
			"repo parameter required (no routable repositories loaded)")
	}
	// The closure keeps what it computed: an unrouted result always comes
	// from the full-match path, so a page headed for the induction buffer
	// has been fingerprinted exactly once, without a parse.
	var feats cluster.Features
	route, ok := s.Router.RouteLazy(page.URI, func() cluster.Features {
		feats = fingerprintPage(page)
		return feats
	})
	if !ok {
		s.Metrics.Router(RouterUnrouted)
		// The page itself is the raw material for wrapper induction:
		// retain it (bounded by the buffer's byte cap) instead of
		// dropping it after counting the miss. The capture remembers the
		// request's trace ID so a job induced over this traffic can name
		// the request that fed it.
		if s.Induct != nil {
			s.Induct.CaptureFingerprinted(page, feats, obs.Trace(ctx))
		}
		msg := fmt.Sprintf("unrouted: page %q matched no repository signature", page.URI)
		if route.Name != "" {
			msg = fmt.Sprintf("unrouted: page %q best match %q at %.2f is below the routing threshold",
				page.URI, route.Name, route.Score)
		}
		return nil, route.Score, &httpError{
			status: http.StatusUnprocessableEntity, msg: msg, cause: pipeline.ErrUnrouted,
		}
	}
	e, loaded := s.Registry.Get(route.Name)
	if !loaded {
		s.Metrics.Router(RouterMiss)
		return nil, 0, errf(http.StatusNotFound,
			"routed to repository %q which is not loaded", route.Name)
	}
	s.Metrics.Router(RouterHit)
	return e, route.Score, nil
}

// resolveRepo picks the repository for a request: the explicit ?repo=
// name when present, else the router's pick for the page.
func (s *Server) resolveRepo(ctx context.Context, name string, page *core.Page) (*RepoEntry, error) {
	if name != "" {
		return s.lookupRepo(name)
	}
	e, _, err := s.routePage(ctx, page)
	return e, err
}

// routerLearnCap is where online route learning stops: once a signature
// has absorbed this many pages it has converged, and the per-request
// fingerprint walk + router write-lock would be pure hot-path overhead.
const routerLearnCap = 200

// learnRoute folds one cleanly extracted, explicitly targeted page into
// the repository's routing signature (when RouterLearn is on) — only on
// the single-page endpoints, and only until the signature has absorbed
// routerLearnCap pages. Pages with detected failures are withheld —
// drifted evidence would teach the router the wrong shape. explicit says
// the request named the repository (?repo=) rather than being routed.
func (s *Server) learnRoute(explicit bool, name string, page *core.Page, fails []extract.Failure) {
	if !s.RouterLearn || len(fails) > 0 || !explicit {
		return
	}
	if s.Router.SignaturePages(name) >= routerLearnCap {
		return
	}
	s.Router.Observe(name, streamx.FingerprintPage(page))
}

// extractEntry runs one page extraction under pool admission, recording
// latency and failure metrics, per-version stats and the drift monitor
// observation — and, when AutoRepair is on and this page tripped the
// repository's drift alarm, kicking the background repair. bound, when
// > 0, caps the wait for pool admission (see Pool.doWait).
func (s *Server) extractEntry(ctx context.Context, e *RepoEntry, page *core.Page, bound time.Duration) (*extract.Element, map[string][]string, []extract.Failure, error) {
	var el *extract.Element
	var values map[string][]string
	var fails []extract.Failure
	var sinfo extract.StreamInfo
	start := time.Now()
	err := s.Pool.doWait(ctx, s.admissionWait(), bound, func() {
		el, values, fails, sinfo = e.Proc.ExtractPageValuesInfo(page)
	})
	if err != nil {
		if errors.Is(err, ErrSaturated) {
			// Load shedding: the pool stayed saturated for the full
			// admission wait. Fail fast with a come-back hint rather than
			// queueing unboundedly — the requests already inside keep
			// draining.
			s.Metrics.Shed()
			return nil, nil, nil, &httpError{
				status:     http.StatusServiceUnavailable,
				msg:        "extraction not scheduled: " + err.Error(),
				retryAfter: time.Second,
			}
		}
		var pe *resilient.PanicError
		if errors.As(err, &pe) {
			// The rule panicked under the pool; DoWait recovered it and
			// the pool stays healthy — only this page fails.
			return nil, nil, nil, errf(http.StatusInternalServerError,
				"extraction failed: %v", pe)
		}
		return nil, nil, nil, errf(http.StatusServiceUnavailable, "extraction not scheduled: %v", err)
	}
	s.Metrics.Extraction(time.Since(start), fails)
	s.Metrics.StreamExtract(sinfo.Hit, sinfo.Reason)
	e.Stats.Record(len(fails))
	mon := s.monitor(e.Name)
	_, justTripped := mon.Observe(page, values, fails)
	if justTripped {
		s.Metrics.Lifecycle("drift.alarm")
		s.logger().LogAttrs(ctx, slog.LevelWarn, "drift.alarm",
			slog.String("repo", e.Name), slog.Int("version", e.Version),
			slog.String("uri", page.URI))
		// A tripped alarm is the scheduler's cue to stop waiting: the
		// repo's recrawl interval snaps back to the minimum and the
		// schedule becomes due immediately.
		if s.Scheduler != nil {
			s.Scheduler.Alarm(e.Name)
		}
	}
	// While the alarm stays tripped the monitor paces retry attempts, so
	// a repair that sampled too early (buffer still dominated by
	// pre-drift pages) gets another shot as evolved pages accumulate.
	if s.AutoRepair && mon.NeedsRepair() {
		go s.safeAutoRepair(e.Name)
	}
	return el, values, fails, nil
}

// syntheticURI names a page that arrived without a URI by its content,
// so the drift monitor's URI-keyed sample buffer keeps distinct pages
// distinct (and re-posts of the same page land on the same sample)
// instead of collapsing every anonymous request into one entry whose
// golden values would mix unrelated pages.
func syntheticURI(html []byte) string {
	key := PageKeyOf(html)
	return fmt.Sprintf("request:%x", key[:8])
}

// pageFor assembles the lazy page for one request body (/extract, and
// the page lines of /extract/batch and /ingest). The URI stays
// per-request; an empty one is derived from the body hash like
// syntheticURI. The page cache is probed only when some consumer needs
// the tree (the general XPath fallback, rendering): the page's parser
// looks the body up and admits the tree it builds, so a stream-path page
// never hashes or copies its body, and identical bodies that do need a
// tree share one parse.
func (s *Server) pageFor(uri, html string) *core.Page {
	if uri == "" {
		uri = syntheticURI([]byte(html))
	}
	page := core.NewPageLazy(uri, html)
	if s.PageCache != nil {
		page.SetParser(s.parseCached)
	}
	return page
}

// parseCached is the parser of pages served while the page cache is on:
// it returns the cached tree of src, or parses src and admits it.
// Compiled rule *programs* are cached per repository version instead.
func (s *Server) parseCached(src string) *dom.Node {
	key := PageKeyOf([]byte(src))
	cache := s.PageCache
	if doc, ok := cache.Get(key); ok {
		s.Metrics.PageCache(true)
		return doc
	}
	s.Metrics.PageCache(false)
	doc := dom.Parse(src)
	cache.Put(key, doc, int64(len(src)))
	return doc
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) error {
	body, err := s.readBody(r)
	if err != nil {
		return err
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return errf(http.StatusBadRequest, "empty HTML body")
	}
	q := r.URL.Query()
	repo := q.Get("repo")
	page := s.pageFor(q.Get("uri"), string(body))
	e, err := s.resolveRepo(r.Context(), repo, page)
	if err != nil {
		return err
	}
	el, _, fails, err := s.extractEntry(r.Context(), e, page, 0)
	if err != nil {
		return err
	}
	s.learnRoute(repo != "", e.Name, page, fails)
	writeResult(w, q.Get("format"), e, page.URI, el, fails)
	return nil
}

// extractor adapts the server to the pipeline's Extract stage: per-page
// repository resolution (routed pages may target different repositories
// within one run), pool admission, metrics, drift observation.
type extractor struct{ s *Server }

// Extract implements pipeline.Extractor. When the server has a request
// budget, each page's wait for the pool is bounded by it — this is how
// streaming /ingest (exempt from the whole-request deadline) still
// bounds every individual extraction. Only the wait needs the bound (an
// admitted task always runs), so a page admitted at once pays for no
// timer.
func (x extractor) Extract(ctx context.Context, repo string, page *core.Page) (*extract.Element, map[string][]string, []extract.Failure, error) {
	e, ok := x.s.Registry.Get(repo)
	if !ok {
		return nil, nil, nil, errf(http.StatusNotFound, "repository %q not loaded", repo)
	}
	return x.s.extractEntry(ctx, e, page, x.s.RequestTimeout)
}

// runPipeline streams src through classify and the server's extractor
// into sink: the one place the daemon's pipelines (/extract/batch,
// /ingest, recrawls) are wired to the pool, metrics and panic hook.
func (s *Server) runPipeline(ctx context.Context, classify pipeline.Classifier, src pipeline.Source, sink pipeline.Sink) (pipeline.Stats, error) {
	return pipeline.Run(ctx, pipeline.Config{
		Workers:    s.Pool.Workers(),
		Classifier: classify,
		Extractor:  extractor{s},
		Telemetry:  s.Metrics.Pipeline,
		OnPanic:    s.pipelinePanic,
	}, src, sink)
}

// streamNDJSON runs a streamed NDJSON exchange (/extract/batch, /ingest):
// the page lines of body, each bounded like an /extract body, go through
// classify and the extractor, and every result goes out as the line line
// appends. tail renders the closing line, if any, from the stats, whether
// a result line went out and the run error; an error it carried in-band
// comes back as a streamedError, one it left out as is, for serve.
func (s *Server) streamNDJSON(w http.ResponseWriter, r *http.Request, classify pipeline.Classifier, body io.Reader,
	line func(dst []byte, it *pipeline.Item) ([]byte, error),
	tail func(stats pipeline.Stats, wrote bool, err error) []byte) error {
	src := pipeline.NewNDJSONSource(body, int(s.maxBody()), s.pageFor)
	w.Header().Set("Content-Type", "application/x-ndjson")
	sink := pipeline.NewNDJSONSink(w, line)
	stats, err := s.runPipeline(r.Context(), classify, src, sink)
	if end := tail(stats, sink.Wrote(), err); len(end) > 0 {
		// A failed tail write means the client went away; the run's own
		// outcome is what serve counts.
		_, _ = w.Write(end)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		if err != nil {
			return streamedError{err}
		}
	}
	return err
}

// requestClassifier returns the pipeline Classify stage for a request:
// the explicit ?repo= when present (validated against the registry),
// else the signature router.
func (s *Server) requestClassifier(r *http.Request) (pipeline.Classifier, error) {
	if name := r.URL.Query().Get("repo"); name != "" {
		if _, ok := s.Registry.Get(name); !ok {
			return nil, errf(http.StatusNotFound, "repository %q not loaded", name)
		}
		return pipeline.FixedRepo(name), nil
	}
	// The closure holds the request context so unrouted captures made on
	// pipeline workers still carry this request's trace ID.
	ctx := r.Context()
	return pipeline.ClassifierFunc(func(p *core.Page) (string, float64, error) {
		e, score, err := s.routePage(ctx, p)
		if err != nil {
			return "", score, err
		}
		return e.Name, score, nil
	}), nil
}

func (s *Server) handleExtractBatch(w http.ResponseWriter, r *http.Request) error {
	classify, err := s.requestClassifier(r)
	if err != nil {
		return err
	}
	// Read the whole batch before the first response write — the
	// documented /extract/batch contract (the body is bounded by
	// MaxBody, so buffering is safe, and clients need no streaming
	// upload support). /ingest is the full-duplex streaming variant.
	body, err := s.readBody(r)
	if err != nil {
		return err
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return errf(http.StatusBadRequest, "empty batch")
	}
	return s.streamNDJSON(w, r, classify, bytes.NewReader(body),
		func(dst []byte, it *pipeline.Item) ([]byte, error) {
			return append(s.appendBatchLine(dst, it), '\n'), nil
		},
		func(_ pipeline.Stats, wrote bool, err error) []byte {
			// Once a line went out, so did the status: the run error
			// travels as one more NDJSON line instead.
			if err == nil || !wrote {
				return nil
			}
			return append(appendErrorObject(nil, err.Error()), '\n')
		})
}

func (s *Server) handleExtractURL(w http.ResponseWriter, r *http.Request) error {
	if s.Fetcher == nil {
		return errf(http.StatusNotImplemented, "URL fetching disabled")
	}
	// An explicit repo name is validated before the outbound fetch;
	// with none given the page is fetched first, then routed.
	q := r.URL.Query()
	repo := q.Get("repo")
	var e *RepoEntry
	if repo != "" {
		var err error
		if e, err = s.lookupRepo(repo); err != nil {
			return err
		}
	}
	target := q.Get("url")
	if target == "" {
		return errf(http.StatusBadRequest, "url parameter required")
	}
	if err := s.checkFetchTarget(target); err != nil {
		return err
	}
	page, err := s.Fetcher.FetchPageContext(r.Context(), target)
	if err != nil {
		return errf(http.StatusBadGateway, "%v", err)
	}
	if e == nil {
		if e, _, err = s.routePage(r.Context(), page); err != nil {
			return err
		}
	}
	el, _, fails, err := s.extractEntry(r.Context(), e, page, 0)
	if err != nil {
		return err
	}
	s.learnRoute(repo != "", e.Name, page, fails)
	writeResult(w, q.Get("format"), e, page.URI, el, fails)
	return nil
}

// checkFetchTarget enforces the AllowedHosts allowlist on /extract/url
// targets.
func (s *Server) checkFetchTarget(target string) error {
	if len(s.AllowedHosts) == 0 {
		return nil
	}
	u, err := url.Parse(target)
	if err != nil {
		return errf(http.StatusBadRequest, "bad url: %v", err)
	}
	for _, h := range s.AllowedHosts {
		if u.Host == h {
			return nil
		}
	}
	return errf(http.StatusForbidden, "host %q not in fetch allowlist", u.Host)
}

// ---------------------------------------------------------------------------
// Introspection.

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"repos":  s.Registry.Len(),
	})
	return nil
}

// wantsProm reports whether the Accept header asks for the Prometheus
// text exposition. A scraper sends text/plain (or openmetrics-text,
// which the 0.0.4 text format satisfies for the metrics we emit); JSON
// stays the default for untyped clients, */*, and application/json.
func wantsProm(accept string) bool {
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	snap := s.MetricsSnapshot()
	if wantsProm(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", obs.PromContentType)
		// A scrape write error means the scraper hung up; there is no
		// useful recovery beyond abandoning the response.
		_ = WriteProm(w, snap)
		return nil
	}
	writeJSON(w, http.StatusOK, snap)
	return nil
}
