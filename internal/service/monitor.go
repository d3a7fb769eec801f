package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/pipeline"
	"repro/internal/streamx"
)

// Continuous monitoring: the drift-adaptive recrawl scheduler
// (internal/monitor) plugged into the server's crawl → route → extract
// → repair machinery. EnableMonitor wires the scheduler's RecrawlFunc
// to the service; the /schedules endpoints manage cadence and the
// /changes endpoint streams the change feed as NDJSON.

// EnableMonitor installs a recrawl scheduler driven by this server:
// cfg.Recrawl defaults to the server's crawl/extract/repair pass,
// outcomes feed the recrawl metrics, and logs flow to the server
// logger. Call before AttachStore so restored schedule state has a
// scheduler to land in; start cadence with go Scheduler.Run(ctx).
func (s *Server) EnableMonitor(cfg monitor.Config) *monitor.Scheduler {
	if cfg.Recrawl == nil {
		cfg.Recrawl = s.recrawlSchedule
	}
	if cfg.Log == nil {
		cfg.Log = s.logger()
	}
	cfg.OnOutcome = s.Metrics.Recrawl
	s.Scheduler = monitor.New(cfg)
	return s.Scheduler
}

// recrawlSchedule is the RecrawlFunc the scheduler runs per firing:
// crawl the schedule's site, extract every page that routes to the
// schedule's repository, and — when the drift monitor demands it —
// repair synchronously and re-extract with the promoted rules so the
// change feed diffs repaired values, not drifted garbage.
func (s *Server) recrawlSchedule(ctx context.Context, sc monitor.ScheduleState) (*monitor.RecrawlResult, error) {
	records, err := s.recrawlExtract(ctx, sc.Repo, sc.URL)
	if err != nil {
		return nil, err
	}
	res := &monitor.RecrawlResult{Records: records}

	mon := s.monitor(sc.Repo)
	if mon.NeedsRepair() && mon.TryBeginRepair() {
		func() {
			defer mon.EndRepair()
			_, rep, rerr := s.repairRepo(ctx, sc.Repo, "auto")
			if rerr != nil {
				s.logger().LogAttrs(ctx, slog.LevelWarn, "recrawl.repair.failed",
					slog.String("repo", sc.Repo), slog.String("error", rerr.Error()))
				return
			}
			res.Repaired = rep.Promoted
		}()
		if res.Repaired {
			if repaired, rerr := s.recrawlExtract(ctx, sc.Repo, sc.URL); rerr == nil {
				res.Records = repaired
			} else {
				s.logger().LogAttrs(ctx, slog.LevelWarn, "recrawl.reextract.failed",
					slog.String("repo", sc.Repo), slog.String("error", rerr.Error()))
			}
		}
	}
	res.Drifting = mon.Health().Status == "drifting"
	return res, nil
}

// recrawlExtract crawls url and runs the pipeline spine over the crawl,
// keeping only pages that route to repo — a recrawl must not pollute
// other repositories' drift monitors or capture pages into induction.
// It returns the extracted records keyed by page URI.
func (s *Server) recrawlExtract(ctx context.Context, repo, url string) (map[string]monitor.Record, error) {
	if s.Fetcher == nil {
		return nil, fmt.Errorf("recrawl: fetching disabled")
	}
	if _, ok := s.Registry.Get(repo); !ok {
		return nil, fmt.Errorf("recrawl: repository %q not loaded", repo)
	}
	crawl, err := s.Fetcher.Start(url)
	if err != nil {
		return nil, fmt.Errorf("recrawl: %w", err)
	}
	classify := pipeline.ClassifierFunc(func(p *core.Page) (string, float64, error) {
		route, ok := s.Router.RouteLazy(p.URI,
			func() cluster.Features { return streamx.FingerprintPage(p) })
		if !ok || route.Name != repo {
			return "", route.Score, fmt.Errorf(
				"recrawl: page %q is not %q traffic: %w", p.URI, repo, pipeline.ErrUnrouted)
		}
		return repo, route.Score, nil
	})
	var mu sync.Mutex
	records := map[string]monitor.Record{}
	sink := pipeline.FuncSink(func(it *pipeline.Item) error {
		if it.Err != nil || it.Repo != repo || it.Page == nil {
			return nil
		}
		mu.Lock()
		records[it.Page.URI] = monitor.Record{
			Fingerprint: monitor.FingerprintValues(it.Values),
			Values:      it.Values,
		}
		mu.Unlock()
		return nil
	})
	_, err = s.runPipeline(ctx, classify, crawl, sink)
	if err != nil {
		return nil, fmt.Errorf("recrawl: %w", err)
	}
	return records, nil
}

// scheduleRequest is the POST /schedules body. Interval is a Go
// duration string ("90s", "15m"); empty takes the scheduler minimum.
type scheduleRequest struct {
	Repo     string `json:"repo"`
	URL      string `json:"url"`
	Interval string `json:"interval,omitempty"`
}

// requireScheduler gates the monitoring endpoints on the scheduler being
// enabled.
func (s *Server) requireScheduler() (*monitor.Scheduler, error) {
	if s.Scheduler == nil {
		return nil, errf(http.StatusNotImplemented,
			"monitoring not enabled (start extractd with -monitor)")
	}
	return s.Scheduler, nil
}

func (s *Server) handleScheduleCreate(w http.ResponseWriter, r *http.Request) error {
	sched, err := s.requireScheduler()
	if err != nil {
		return err
	}
	body, err := s.readBody(r)
	if err != nil {
		return err
	}
	var req scheduleRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return errf(http.StatusBadRequest, "invalid schedule request: %v", err)
	}
	if _, ok := s.Registry.Get(req.Repo); !ok {
		return errf(http.StatusNotFound, "repository %q not loaded", req.Repo)
	}
	var interval time.Duration
	if req.Interval != "" {
		interval, err = time.ParseDuration(req.Interval)
		if err != nil {
			return errf(http.StatusBadRequest, "invalid interval %q: %v", req.Interval, err)
		}
	}
	st, err := sched.Register(req.Repo, req.URL, interval)
	if err != nil {
		return errf(http.StatusBadRequest, "%v", err)
	}
	s.logger().LogAttrs(r.Context(), slog.LevelInfo, "schedule.register",
		slog.String("repo", st.Repo), slog.String("url", st.URL),
		slog.Duration("interval", st.Interval))
	writeJSON(w, http.StatusCreated, st)
	return nil
}

func (s *Server) handleScheduleList(w http.ResponseWriter, r *http.Request) error {
	sched, err := s.requireScheduler()
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"schedules": sched.List()})
	return nil
}

// scheduleOp runs one named mutation against a path-addressed schedule.
func (s *Server) scheduleOp(w http.ResponseWriter, r *http.Request, op string, fn func(sched *monitor.Scheduler, repo string) error) error {
	sched, err := s.requireScheduler()
	if err != nil {
		return err
	}
	repo := r.PathValue("repo")
	if err := fn(sched, repo); err != nil {
		return errf(http.StatusNotFound, "%v", err)
	}
	s.logger().LogAttrs(r.Context(), slog.LevelInfo, "schedule."+op,
		slog.String("repo", repo))
	st, _ := sched.Get(repo)
	writeJSON(w, http.StatusOK, map[string]any{"repo": repo, "op": op, "schedule": st})
	return nil
}

func (s *Server) handleSchedulePause(w http.ResponseWriter, r *http.Request) error {
	return s.scheduleOp(w, r, "pause", (*monitor.Scheduler).Pause)
}

func (s *Server) handleScheduleResume(w http.ResponseWriter, r *http.Request) error {
	return s.scheduleOp(w, r, "resume", (*monitor.Scheduler).Resume)
}

func (s *Server) handleScheduleDelete(w http.ResponseWriter, r *http.Request) error {
	return s.scheduleOp(w, r, "remove", (*monitor.Scheduler).Remove)
}

// handleChanges streams the change feed as NDJSON: every retained
// event with Seq > ?since=, then — with ?follow=1 — blocks for new
// events until the client goes away. The route streams, so like /ingest
// it is exempt from the request deadline: a tail legitimately outlives
// any fixed budget.
func (s *Server) handleChanges(w http.ResponseWriter, r *http.Request) error {
	sched, err := s.requireScheduler()
	if err != nil {
		return err
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return errf(http.StatusBadRequest, "invalid since %q", v)
		}
		since = n
	}
	follow := r.URL.Query().Get("follow") == "1" || r.URL.Query().Get("follow") == "true"
	if follow {
		// A follow stream lives until the client hangs up; clear any
		// listener-level connection deadlines like /ingest does.
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(time.Time{})
		_ = rc.SetWriteDeadline(time.Time{})
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// Each batch of events goes out as one Write and one flush.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	feed := sched.Feed()
	for {
		buf.Reset()
		for _, ev := range feed.Since(since) {
			if err := enc.Encode(ev); err != nil {
				return nil // an event json refuses ends the stream
			}
			since = ev.Seq
		}
		if buf.Len() > 0 {
			if _, err := w.Write(buf.Bytes()); err != nil {
				return nil // client went away mid-stream
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if !follow {
			return nil
		}
		if err := feed.Wait(r.Context(), since); err != nil {
			return nil
		}
	}
}
