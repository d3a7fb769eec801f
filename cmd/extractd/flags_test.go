package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/obs"
	"repro/internal/rule"
	"repro/internal/service"
)

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// writeMoviesRules builds a movies repository from a small corpus and
// saves it as rules.json under dir.
func writeMoviesRules(t *testing.T, dir string) string {
	t.Helper()
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(41, 12))
	sample, _ := cl.RepresentativeSplit(10)
	builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "rules.json")
	if err := repo.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// configure runs both startup steps on args: parse into options, then
// build the server. The server is released when the test ends.
func configure(t *testing.T, args ...string) (*service.Server, options, *syncBuffer) {
	t.Helper()
	logs := &syncBuffer{}
	opts, err := parseOptions(args, logs)
	if err != nil {
		t.Fatalf("parseOptions(%q): %v", args, err)
	}
	srv, err := newServer(opts)
	if err != nil {
		t.Fatalf("newServer(%q): %v", args, err)
	}
	t.Cleanup(func() { abandon(srv, obs.NopLogger()) })
	return srv, opts, logs
}

// TestFlags sets each flag to a non-default value and asserts the
// difference it makes to the configured server. The "defaults" row is
// the reference every other row departs from.
func TestFlags(t *testing.T) {
	dir := t.TempDir()
	rulesPath := writeMoviesRules(t, dir)
	truthPath := filepath.Join(dir, "truth.json")
	if err := os.WriteFile(truthPath,
		[]byte(`{"http://site.test/a":{"title":["A"]},"http://site.test/b":{"title":["B"]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fsyncs := func(policy string) int64 {
		srv, _, _ := configure(t, "-data-dir", t.TempDir(), "-fsync", policy, "-rules", rulesPath)
		return srv.Store.Metrics().Fsyncs
	}

	cases := []struct {
		name  string
		args  []string
		check func(t *testing.T, srv *service.Server, opts options, logs *syncBuffer)
	}{
		{"defaults", nil, func(t *testing.T, srv *service.Server, opts options, logs *syncBuffer) {
			if opts.addr != ":8090" {
				t.Errorf("addr = %q", opts.addr)
			}
			if got := srv.Pool.Workers(); got != runtime.GOMAXPROCS(0) {
				t.Errorf("workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
			}
			if srv.Fetcher == nil || srv.AllowedHosts != nil || srv.AutoRepair {
				t.Errorf("fetcher=%v hosts=%v autoRepair=%v, want fetching to any host, no auto-repair",
					srv.Fetcher, srv.AllowedHosts, srv.AutoRepair)
			}
			if srv.PageCache == nil || srv.Induct != nil || srv.Scheduler != nil || srv.Store != nil {
				t.Errorf("pageCache=%v induct=%v scheduler=%v store=%v, want only the page cache",
					srv.PageCache, srv.Induct, srv.Scheduler, srv.Store)
			}
			if srv.Registry.Len() != 0 {
				t.Errorf("registry holds %d repos, want none", srv.Registry.Len())
			}
			if opts.log.Enabled(context.Background(), slog.LevelDebug) {
				t.Error("debug logging on by default")
			}
			if opts.pprof != 0 {
				t.Errorf("pprof = %d, want off", opts.pprof)
			}
		}},
		{"addr", []string{"-addr", "127.0.0.1:9"}, func(t *testing.T, _ *service.Server, opts options, _ *syncBuffer) {
			if opts.addr != "127.0.0.1:9" {
				t.Errorf("addr = %q", opts.addr)
			}
		}},
		{"workers", []string{"-workers", "3"}, func(t *testing.T, srv *service.Server, _ options, _ *syncBuffer) {
			if got := srv.Pool.Workers(); got != 3 {
				t.Errorf("workers = %d, want 3", got)
			}
		}},
		{"rules", []string{"-rules", "films=" + rulesPath, "-rules", rulesPath}, func(t *testing.T, srv *service.Server, _ options, _ *syncBuffer) {
			for _, name := range []string{"films", "imdb-movies"} {
				if _, ok := srv.Registry.Get(name); !ok {
					t.Errorf("repo %q not preloaded", name)
				}
			}
		}},
		{"data-dir", []string{"-data-dir", filepath.Join(dir, "data"), "-rules", rulesPath}, func(t *testing.T, srv *service.Server, opts options, _ *syncBuffer) {
			if srv.Store == nil || srv.Store.Dir() != opts.dataDir {
				t.Fatalf("store = %v, want one in %s", srv.Store, opts.dataDir)
			}
			// A second daemon over the same directory restores the
			// repository without being told to load it.
			abandon(srv, obs.NopLogger())
			srv.Store = nil
			again, _, _ := configure(t, "-data-dir", opts.dataDir)
			if _, ok := again.Registry.Get("imdb-movies"); !ok {
				t.Error("restart over -data-dir lost the preloaded repository")
			}
		}},
		{"fsync", []string{"-fsync", "never"}, func(t *testing.T, _ *service.Server, opts options, _ *syncBuffer) {
			if opts.fsync != "never" {
				t.Errorf("fsync = %q", opts.fsync)
			}
			// Both stores sync once when they open; only "always" syncs
			// the preload's appends.
			if always, never := fsyncs("always"), fsyncs("never"); always <= never {
				t.Errorf("fsyncs after a preload: always=%d never=%d, want always > never", always, never)
			}
		}},
		{"log-format", []string{"-log-format", "json", "-rules", rulesPath}, func(t *testing.T, _ *service.Server, _ options, logs *syncBuffer) {
			line, _, _ := strings.Cut(logs.String(), "\n")
			var v map[string]any
			if err := json.Unmarshal([]byte(line), &v); err != nil {
				t.Errorf("log line is not JSON: %q", line)
			}
		}},
		{"log-level", []string{"-log-level", "debug"}, func(t *testing.T, _ *service.Server, opts options, _ *syncBuffer) {
			if !opts.log.Enabled(context.Background(), slog.LevelDebug) {
				t.Error("-log-level debug left debug logging off")
			}
		}},
		{"pprof", []string{"-pprof", "6060"}, func(t *testing.T, _ *service.Server, opts options, _ *syncBuffer) {
			if opts.pprof != 6060 {
				t.Errorf("pprof = %d", opts.pprof)
			}
		}},
		{"no-fetch", []string{"-no-fetch"}, func(t *testing.T, srv *service.Server, _ options, _ *syncBuffer) {
			if srv.Fetcher != nil {
				t.Error("fetcher set under -no-fetch")
			}
		}},
		{"fetch-hosts", []string{"-fetch-hosts", "a.test:8080, b.test,"}, func(t *testing.T, srv *service.Server, _ options, _ *syncBuffer) {
			if want := []string{"a.test:8080", "b.test"}; !reflect.DeepEqual(srv.AllowedHosts, want) {
				t.Errorf("AllowedHosts = %q, want %q", srv.AllowedHosts, want)
			}
		}},
		{"auto-repair", []string{"-auto-repair"}, func(t *testing.T, srv *service.Server, _ options, _ *syncBuffer) {
			if !srv.AutoRepair {
				t.Error("AutoRepair off under -auto-repair")
			}
		}},
		{"induct", []string{"-induct"}, func(t *testing.T, srv *service.Server, _ options, _ *syncBuffer) {
			if srv.Induct == nil {
				t.Error("no induction engine under -induct")
			}
		}},
		{"induct-truth", []string{"-induct", "-induct-truth", truthPath}, func(t *testing.T, _ *service.Server, _ options, logs *syncBuffer) {
			if !strings.Contains(logs.String(), "msg=induct.truth.loaded pages=2") {
				t.Errorf("truth file not loaded; logs:\n%s", logs)
			}
		}},
		{"monitor", []string{"-monitor"}, func(t *testing.T, srv *service.Server, _ options, _ *syncBuffer) {
			if srv.Scheduler == nil {
				t.Error("no scheduler under -monitor")
			}
		}},
		{"recrawl-min", []string{"-monitor", "-recrawl-min", "5s"}, func(t *testing.T, srv *service.Server, _ options, _ *syncBuffer) {
			st, err := srv.Scheduler.Register("movies", "http://site.test/", time.Millisecond)
			if err != nil || st.Interval != 5*time.Second {
				t.Errorf("interval = %v (%v), want the 5s floor", st.Interval, err)
			}
		}},
		{"recrawl-max", []string{"-monitor", "-recrawl-max", "1h"}, func(t *testing.T, srv *service.Server, _ options, _ *syncBuffer) {
			st, err := srv.Scheduler.Register("movies", "http://site.test/", 48*time.Hour)
			if err != nil || st.Interval != time.Hour {
				t.Errorf("interval = %v (%v), want the 1h ceiling", st.Interval, err)
			}
		}},
		{"recrawl-budget", []string{"-monitor", "-recrawl-budget", "1"}, func(t *testing.T, _ *service.Server, opts options, _ *syncBuffer) {
			// The scheduler keeps its budget private; the crash e2e
			// drives a daemon started with -recrawl-budget 1.
			if opts.recrawlBudget != 1 {
				t.Errorf("recrawlBudget = %d", opts.recrawlBudget)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, opts, logs := configure(t, tc.args...)
			tc.check(t, srv, opts, logs)
		})
	}
}

// TestFlagErrors: contradictory or malformed settings fail at startup
// instead of producing a daemon that silently ignores one of them.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-induct-truth", "truth.json"}, "-induct-truth requires -induct"},
		{[]string{"-monitor", "-no-fetch"}, "-monitor requires outbound fetching"},
		{[]string{"-log-format", "xml"}, "unknown log format"},
		{[]string{"-log-level", "loud"}, "unknown log level"},
		{[]string{"-workers", "many"}, "invalid value"},
	} {
		_, err := parseOptions(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseOptions(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	// Files named by flags are read while building the server.
	for _, args := range [][]string{
		{"-induct", "-induct-truth", filepath.Join(t.TempDir(), "missing.json")},
		{"-rules", filepath.Join(t.TempDir(), "missing.json")},
	} {
		opts, err := parseOptions(args, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if srv, err := newServer(opts); err == nil {
			abandon(srv, obs.NopLogger())
			t.Errorf("newServer(%q) succeeded on a missing file", args)
		}
	}
}

// TestFixedSettings pins the settings that are constants rather than
// flags.
func TestFixedSettings(t *testing.T) {
	srv, _, _ := configure(t, "-workers", "3")
	if got := srv.Pool.QueueCapacity(); got != 12 {
		t.Errorf("queue = %d, want 4x workers = 12", got)
	}
	if srv.Lifecycle.WindowSize != 50 || srv.Lifecycle.TripRatio != 0.3 {
		t.Errorf("drift window/ratio = %d/%v, want 50/0.3",
			srv.Lifecycle.WindowSize, srv.Lifecycle.TripRatio)
	}
	if !srv.RouterLearn {
		t.Error("router learning off")
	}
	if srv.RequestTimeout != 30*time.Second || srv.AdmissionWait != 2*time.Second {
		t.Errorf("request timeout/admission wait = %v/%v, want 30s/2s",
			srv.RequestTimeout, srv.AdmissionWait)
	}
	if drainTimeout != 15*time.Second || snapshotEvery != 5*time.Minute {
		t.Errorf("drain/snapshot = %v/%v, want 15s/5m", drainTimeout, snapshotEvery)
	}
	if inductMinPages != 8 || inductWorkers != 1 {
		t.Errorf("induct min pages/workers = %d/%d, want 8/1", inductMinPages, inductWorkers)
	}
	for i := 0; i <= service.DefaultPageCacheSize; i++ {
		body := fmt.Sprintf("<p>%d</p>", i)
		srv.PageCache.Put(service.PageKeyOf([]byte(body)), dom.Parse(body), int64(len(body)))
	}
	if got := srv.PageCache.Len(); got != service.DefaultPageCacheSize {
		t.Errorf("page cache holds %d documents, want %d", got, service.DefaultPageCacheSize)
	}
	// A command line that tries to set one fails instead of being
	// silently ignored.
	for _, name := range []string{"queue", "drift-window", "drift-ratio", "router-learn",
		"drain-timeout", "request-timeout", "admission-wait", "induct-min-pages",
		"induct-workers", "snapshot-every", "page-cache"} {
		if _, err := parseOptions([]string{"-" + name + "=1"}, io.Discard); err == nil {
			t.Errorf("-%s still accepted", name)
		}
	}
}

// TestServePprof: -pprof serves the profiler on localhost at that port.
func TestServePprof(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	servePprof(port, obs.NopLogger())
	url := fmt.Sprintf("http://127.0.0.1:%d/debug/pprof/cmdline", port)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s = %d", url, resp.StatusCode)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pprof never answered: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRunServesAndShutsDown drives run in-process: it listens on -addr,
// serves the preloaded repository, and on cancellation drains and
// leaves a final snapshot in -data-dir.
func TestRunServesAndShutsDown(t *testing.T) {
	dir := t.TempDir()
	rulesPath := writeMoviesRules(t, dir)
	dataDir := filepath.Join(dir, "data")
	logs := &syncBuffer{}
	opts, err := parseOptions([]string{"-addr", "127.0.0.1:0", "-log-format", "json",
		"-data-dir", dataDir, "-rules", "films=" + rulesPath}, logs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, opts) }()

	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; {
		sc := bufio.NewScanner(strings.NewReader(logs.String()))
		for sc.Scan() {
			var line struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "extractd.listening" {
				addr = line.Addr
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never listened; logs:\n%s", logs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get("http://" + addr + "/repos")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"films"`) {
		t.Errorf("GET /repos = %s, want the preloaded films repo", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
	if _, err := os.Stat(filepath.Join(dataDir, "snapshot.json")); err != nil {
		t.Errorf("no final snapshot: %v", err)
	}
}
