// Command extractd is the online half of the paper's pipeline as a
// long-running service: it holds a hot-loadable registry of rule
// repositories (built offline with retrozilla) and serves concurrent
// extraction traffic under a bounded admission pool.
//
// Usage:
//
//	extractd -addr :8090 -rules movies=rules.json -rules books.xml
//
// then:
//
//	curl -X POST --data-binary @page.html 'http://localhost:8090/extract?repo=movies'
//	curl -X POST 'http://localhost:8090/extract/url?repo=movies&url=http://site/tt0074103.html'
//	curl -X POST --data-binary @rules.json 'http://localhost:8090/repos?name=movies'   # hot reload
//	curl 'http://localhost:8090/repos/movies/health'                                   # drift monitor
//	curl -X POST 'http://localhost:8090/repos/movies/repair'                           # rebuild broken rules
//	curl -X POST 'http://localhost:8090/repos/movies/rollback'                         # previous version
//	curl 'http://localhost:8090/metrics'
//
// With -auto-repair the daemon runs the repair → stage → shadow-evaluate
// → promote sequence on its own when a repository's drift alarm trips.
//
// With -induct the daemon captures unrouted pages instead of dropping
// them, clusters them by signature, and runs background
// wrapper-induction jobs over stable clusters (POST /induce supplies
// operator examples; -induct-truth preloads a truth.json oracle).
// Staged results are listed under /jobs and activated with
// POST /jobs/{id}/promote — after which the new cluster routes and
// extracts like any preloaded repository.
//
// With -data-dir the daemon journals every state mutation (repository
// publishes, routing signatures, buffered pages, induction job
// transitions) to an append-only WAL and periodically compacts it into
// a snapshot, so a crash or restart resumes exactly where it left off:
// active versions serve, staged versions await promotion, queued jobs
// re-queue and interrupted jobs restart. -fsync picks the flush policy
// and a background compaction every 5 minutes keeps the WAL short (see
// README "Durability").
//
// A content-addressed LRU of parsed documents
// (service.DefaultPageCacheSize) lets repeated posts of identical HTML
// skip the parser; hit/miss counters are in /metrics. -pprof PORT
// serves net/http/pprof on localhost only, for profiling the live
// daemon.
//
// Each -rules flag names a repository file (JSON from retrozilla, or the
// XML interchange form), optionally prefixed "name=" to register it under
// a name other than its cluster name.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the DefaultServeMux, served only by the -pprof listener
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/induct"
	"repro/internal/lifecycle"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/resilient"
	"repro/internal/rule"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/webfetch"
)

// Fixed daemon settings: every deployment runs with these values, so
// none of them is a flag.
const (
	// requestTimeout bounds every request; streaming /ingest is bounded
	// per page instead.
	requestTimeout = 30 * time.Second
	// admissionWait is how long a request may wait for a pool slot
	// before a 503 + Retry-After.
	admissionWait = 2 * time.Second
	// drainTimeout is the graceful-shutdown budget for in-flight
	// requests on SIGINT/SIGTERM.
	drainTimeout = 15 * time.Second
	// snapshotEvery is the background WAL compaction cadence (shutdown
	// always compacts, boot whenever it restored state).
	snapshotEvery = 5 * time.Minute
	// The drift alarm trips when driftRatio of the last driftWindow
	// pages of a repository fail.
	driftWindow = 50
	driftRatio  = 0.3
	// An unrouted bucket needs inductMinPages captured pages before it
	// can become an induction job; inductWorkers jobs run at a time.
	inductMinPages = 8
	inductWorkers  = 1
)

type rulesFlags []string

func (r *rulesFlags) String() string     { return strings.Join(*r, ",") }
func (r *rulesFlags) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	opts, err := parseOptions(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "extractd:", err)
		os.Exit(2)
	}
	if opts.pprof > 0 {
		servePprof(opts.pprof, opts.log)
	}
	// SIGINT/SIGTERM start a graceful shutdown: stop accepting, let
	// in-flight requests finish (bounded by drainTimeout), wait out the
	// admitted extractions, then exit. A second signal kills the process the
	// usual way (the NotifyContext restores default handling once fired).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "extractd:", err)
		os.Exit(1)
	}
}

// options carries the parsed daemon configuration into newServer and run.
type options struct {
	addr          string
	workers       int
	rules         []string
	dataDir       string
	fsync         string
	pprof         int
	noFetch       bool
	fetchHosts    []string
	autoRepair    bool
	induct        bool
	inductTruth   string
	monitor       bool
	recrawlMin    time.Duration
	recrawlMax    time.Duration
	recrawlBudget int
	log           *slog.Logger
}

// parseOptions parses the command line into options, rejecting flag
// combinations the daemon cannot honour. The logger it builds writes to
// stderr.
func parseOptions(args []string, stderr io.Writer) (options, error) {
	var opts options
	var rules rulesFlags
	fs := flag.NewFlagSet("extractd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opts.addr, "addr", ":8090", "listen address")
	fs.IntVar(&opts.workers, "workers", 0, "extraction worker count (default GOMAXPROCS; the queue holds 4x workers)")
	fs.BoolVar(&opts.noFetch, "no-fetch", false, "disable /extract/url outbound fetching")
	fetchHosts := fs.String("fetch-hosts", "",
		"comma-separated host allowlist for /extract/url (empty allows any host)")
	fs.BoolVar(&opts.autoRepair, "auto-repair", false,
		"repair and promote a repository automatically when its drift alarm trips")
	fs.IntVar(&opts.pprof, "pprof", 0,
		"serve net/http/pprof on localhost:PORT for live profiling (0 disables)")
	fs.BoolVar(&opts.induct, "induct", false,
		"buffer unrouted pages and run background wrapper-induction jobs over them")
	fs.StringVar(&opts.inductTruth, "induct-truth", "",
		"truth.json file feeding the induction oracle (besides POST /induce examples and lifecycle golden values)")
	logFormat := fs.String("log-format", "text",
		"structured log encoding: text or json")
	logLevel := fs.String("log-level", "info",
		"minimum log level: debug, info, warn or error")
	fs.StringVar(&opts.dataDir, "data-dir", "",
		"durability directory (WAL + snapshots); empty runs memory-only and loses all state on exit")
	fs.StringVar(&opts.fsync, "fsync", store.FsyncInterval,
		"WAL fsync policy: always (group-commit per append), interval (background flush) or never")
	fs.BoolVar(&opts.monitor, "monitor", false,
		"enable the drift-adaptive recrawl scheduler (/schedules, /changes); requires outbound fetching")
	fs.DurationVar(&opts.recrawlMin, "recrawl-min", time.Minute,
		"recrawl interval floor: alarmed/drifting schedules snap back to this")
	fs.DurationVar(&opts.recrawlMax, "recrawl-max", 7*24*time.Hour,
		"recrawl interval ceiling: stable schedules decay toward this")
	fs.IntVar(&opts.recrawlBudget, "recrawl-budget", 2,
		"max concurrent scheduled recrawls")
	fs.Var(&rules, "rules", "repository file to preload ([name=]path.json|path.xml); repeatable")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	opts.rules = rules
	for _, h := range strings.Split(*fetchHosts, ",") {
		if h = strings.TrimSpace(h); h != "" {
			opts.fetchHosts = append(opts.fetchHosts, h)
		}
	}
	if opts.inductTruth != "" && !opts.induct {
		return options{}, fmt.Errorf("-induct-truth requires -induct")
	}
	if opts.monitor && opts.noFetch {
		return options{}, fmt.Errorf("-monitor requires outbound fetching (drop -no-fetch)")
	}
	var err error
	if opts.log, err = obs.NewLogger(stderr, *logFormat, *logLevel); err != nil {
		return options{}, err
	}
	return opts, nil
}

// servePprof serves net/http/pprof on localhost:port in the background.
// Localhost-only on purpose: the profiler exposes heap contents and
// must never ride the public listen address.
func servePprof(port int, log *slog.Logger) {
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	go func() {
		log.Info("pprof.listening", "url", "http://"+addr+"/debug/pprof/")
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Error("pprof.failed", "error", err.Error())
		}
	}()
}

// newServer builds the configured server: the pool, fetcher and
// feature engines, then durable state restored from opts.dataDir, then
// the -rules preload. The caller must release it with shutdown after
// srv.Close.
func newServer(opts options) (*service.Server, error) {
	var fetcher *webfetch.Fetcher
	if !opts.noFetch {
		// Outbound resilience: transient failures retry with backoff, and
		// per-host circuit breakers stop hammering dead origins.
		fetcher = &webfetch.Fetcher{Retry: &resilient.Retrier{}}
	}
	// Queue 0: NewServer sizes the pool queue at 4x workers.
	srv := service.NewServer(opts.workers, 0, fetcher)
	srv.Log = opts.log
	srv.RequestTimeout = requestTimeout
	srv.AdmissionWait = admissionWait
	srv.AutoRepair = opts.autoRepair
	// Cleanly extracted explicit-repo traffic grows routing signatures.
	srv.RouterLearn = true
	srv.Lifecycle = lifecycle.Config{WindowSize: driftWindow, TripRatio: driftRatio, Logger: opts.log}
	srv.AllowedHosts = opts.fetchHosts
	if opts.induct {
		eng := srv.EnableInduction(induct.Config{MinPages: inductMinPages, Workers: inductWorkers})
		if opts.inductTruth != "" {
			truth, err := induct.LoadTruth(opts.inductTruth)
			if err != nil {
				abandon(srv, opts.log)
				return nil, err
			}
			eng.AddTruth(truth)
			opts.log.Info("induct.truth.loaded",
				"pages", truth.Len(), "file", opts.inductTruth)
		}
	}

	// The scheduler must exist before AttachStore so restored schedule
	// state and change-feed events have somewhere to land; its cadence
	// loop starts in run, after restore + preload.
	if opts.monitor {
		srv.EnableMonitor(monitor.Config{
			MinInterval: opts.recrawlMin,
			MaxInterval: opts.recrawlMax,
			Budget:      opts.recrawlBudget,
		})
	}

	// Durability: open the data directory (replaying any previous run's
	// snapshot + WAL tail) before the -rules preload, so restored state
	// is visible when deciding whether a preload would duplicate it.
	if opts.dataDir != "" {
		st, err := store.Open(store.Options{
			Dir: opts.dataDir, Fsync: opts.fsync, Logger: opts.log,
		})
		if err != nil {
			abandon(srv, opts.log)
			return nil, err
		}
		if err := srv.AttachStore(st); err != nil {
			st.Close()
			srv.Store = nil
			abandon(srv, opts.log)
			return nil, err
		}
	}

	if err := preload(srv, opts.rules, opts.log); err != nil {
		abandon(srv, opts.log)
		return nil, err
	}
	return srv, nil
}

// preload loads each -rules spec ("[name=]path") into the registry.
func preload(srv *service.Server, specs []string, log *slog.Logger) error {
	for _, spec := range specs {
		name, path := "", spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			name, path = spec[:i], spec[i+1:]
		}
		repo, err := rule.LoadFile(path)
		if err != nil {
			return err
		}
		// A restart over a data directory already replayed this
		// repository; re-loading the unchanged file would mint a
		// duplicate version every boot. Changed files load normally
		// (new version, immediately active — the usual hot reload).
		if srv.Store != nil {
			resolved := name
			if resolved == "" {
				resolved = repo.Cluster
			}
			if e, ok := srv.Registry.Get(resolved); ok && sameRepoJSON(e.Repo, repo) {
				log.Info("registry.preload.unchanged",
					"repo", resolved, "version", e.Version, "file", path)
				continue
			}
		}
		// The registry load event itself is logged by the server.
		if _, err := srv.LoadRepo(name, repo); err != nil {
			return err
		}
	}
	return nil
}

// shutdown releases what newServer opened once serve has drained the
// pool: a final compaction (the next boot restores from one snapshot
// instead of replaying the whole session's WAL), the store, then the
// induction engine.
func shutdown(srv *service.Server, log *slog.Logger) {
	if srv.Store != nil {
		if err := srv.SaveSnapshot(); err != nil {
			log.Warn("store.final-snapshot-failed", "error", err.Error())
		}
		if err := srv.Store.Close(); err != nil {
			log.Warn("store.close-failed", "error", err.Error())
		}
	}
	if srv.Induct != nil {
		srv.Induct.Close()
	}
}

// abandon releases a server that never served.
func abandon(srv *service.Server, log *slog.Logger) {
	srv.Close()
	shutdown(srv, log)
}

func run(ctx context.Context, opts options) error {
	srv, err := newServer(opts)
	if err != nil {
		return err
	}
	defer shutdown(srv, opts.log)
	if srv.Store != nil {
		go snapshotLoop(ctx, srv, snapshotEvery, opts.log)
	}
	if sched := srv.Scheduler; sched != nil {
		go func() {
			if err := sched.Run(ctx); err != nil && ctx.Err() == nil {
				opts.log.Warn("monitor.run.stopped", "error", err.Error())
			}
		}()
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		srv.Close()
		return err
	}
	opts.log.Info("extractd.listening",
		"addr", ln.Addr().String(), "workers", srv.Pool.Workers(), "queue", srv.Pool.QueueCapacity(),
		"repos", srv.Registry.Len(), "routable", srv.Router.Len(),
		"induction", opts.induct, "monitor", opts.monitor, "durable", srv.Store != nil)
	return serve(ctx, ln, srv, drainTimeout, opts.log)
}

// sameRepoJSON reports whether two repositories encode identically —
// the preload skip test for restarts over a data directory.
func sameRepoJSON(a, b *rule.Repository) bool {
	return bytes.Equal(a.AppendJSON(nil, nil), b.AppendJSON(nil, nil))
}

// snapshotLoop compacts the WAL into a snapshot on a fixed cadence
// until the daemon begins shutting down (the final compaction happens
// on the shutdown path itself).
func snapshotLoop(ctx context.Context, srv *service.Server, every time.Duration, log *slog.Logger) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := srv.SaveSnapshot(); err != nil {
				log.Warn("store.snapshot-failed", "error", err.Error())
			}
		}
	}
}

// newHTTPServer wraps the handler in a listener configuration hardened
// against slow clients (slowloris): a client must deliver its headers
// within ReadHeaderTimeout and the whole exchange within
// ReadTimeout/WriteTimeout, or the connection is dropped. The streaming
// /ingest route clears its connection deadlines itself (per-connection
// ResponseController carve-out in the handler) — a site migration
// legitimately runs for hours while these limits protect every other
// route.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// serve runs the HTTP server until ctx is cancelled (signal) or the
// listener fails, then shuts down gracefully: new connections are
// refused, in-flight requests get drainTimeout to finish, and the
// admitted extractions finish before the function returns.
func serve(ctx context.Context, ln net.Listener, srv *service.Server, drainTimeout time.Duration, log *slog.Logger) error {
	httpSrv := newHTTPServer(srv.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	var err error
	select {
	case err = <-errCh:
		// Listener failure: nothing graceful left to do.
		httpSrv.Close()
	case <-ctx.Done():
		log.Info("extractd.shutdown", "reason", "signal", "drainTimeout", drainTimeout.String())
		shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		if serr := httpSrv.Shutdown(shutCtx); serr != nil {
			log.Warn("extractd.forced-close", "error", serr.Error())
			httpSrv.Close()
		}
		cancel()
	}
	// Drain queued extractions so no accepted work is abandoned.
	srv.Close()
	if err != nil && err != http.ErrServerClosed {
		return err
	}
	log.Info("extractd.exited")
	return nil
}
