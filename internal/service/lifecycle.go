package service

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"

	"repro/internal/lifecycle"
	"repro/internal/resilient"
)

// Wrapper-lifecycle wiring: every repository name gets a lazily created
// lifecycle.Monitor fed by the extraction path. The monitor detects page
// drift (§7 failure taxonomy over a sliding window); the handlers below
// expose drift health, manual repair, rollback and the version history;
// and when AutoRepair is on, a tripped alarm triggers the repair →
// stage → shadow-evaluate → promote sequence without an operator.

// monitor returns (creating on first use) the drift monitor for a
// repository name.
func (s *Server) monitor(name string) *lifecycle.Monitor {
	s.monMu.Lock()
	defer s.monMu.Unlock()
	if s.monitors == nil {
		s.monitors = map[string]*lifecycle.Monitor{}
	}
	m, ok := s.monitors[name]
	if !ok {
		m = lifecycle.NewMonitor(s.Lifecycle)
		s.monitors[name] = m
	}
	return m
}

// dropMonitor forgets a repository's monitor (on unload).
func (s *Server) dropMonitor(name string) {
	s.monMu.Lock()
	delete(s.monitors, name)
	s.monMu.Unlock()
}

// autoRepair runs one guarded repair pass for a repository whose drift
// alarm just tripped. It is called on its own goroutine from the
// extraction path; the TryBeginRepair singleflight keeps concurrent
// trips from stacking repairs.
func (s *Server) autoRepair(name string) {
	mon := s.monitor(name)
	if !mon.TryBeginRepair() {
		return
	}
	defer mon.EndRepair()
	_, _, _ = s.repairRepo(context.Background(), name, "auto")
}

// safeAutoRepair is the goroutine entry point for background repairs: a
// panic on this detached goroutine would otherwise crash the whole
// daemon, so it is recovered into a counter and an error log.
func (s *Server) safeAutoRepair(name string) {
	defer func() {
		if v := recover(); v != nil {
			pe := &resilient.PanicError{Val: v, Stack: debug.Stack()}
			s.Metrics.PanicRecovered("repair")
			s.logger().LogAttrs(context.Background(), slog.LevelError, "repair.panic",
				slog.String("repo", name),
				slog.String("error", pe.Error()),
				slog.String("stack", string(pe.Stack)))
		}
	}()
	s.autoRepair(name)
}

// repairRepo drives one repair pass: build a candidate repository from
// the monitor's sample buffer, stage it as a new version, and — per the
// promote policy — promote it when the shadow evaluation improved on the
// active version. promote is "auto" (promote when improved), "never"
// (stage only) or "force".
//
// The returned entry is the staged version (which may also be the newly
// active one); the report tells the caller what happened.
func (s *Server) repairRepo(ctx context.Context, name, promote string) (*RepoEntry, *repairResponse, error) {
	e, ok := s.Registry.Get(name)
	if !ok {
		return nil, nil, errf(http.StatusNotFound, "repository %q not loaded", name)
	}
	mon := s.monitor(name)
	s.Metrics.Lifecycle("repair.attempted")
	s.logger().LogAttrs(ctx, slog.LevelInfo, "repair.attempted",
		slog.String("repo", name), slog.Int("fromVersion", e.Version),
		slog.String("promote", promote))
	candidate, report, err := mon.Repair(e.Repo, e.Proc)
	if err != nil {
		s.Metrics.Lifecycle("repair.failed")
		s.logger().LogAttrs(ctx, slog.LevelWarn, "repair.failed",
			slog.String("repo", name), slog.String("error", err.Error()))
		return nil, nil, errf(http.StatusConflict, "%v", err)
	}
	staged, err := s.Registry.Stage(name, candidate)
	if err != nil {
		s.Metrics.Lifecycle("repair.failed")
		s.logger().LogAttrs(ctx, slog.LevelWarn, "repair.failed",
			slog.String("repo", name), slog.String("error", err.Error()))
		return nil, nil, errf(http.StatusUnprocessableEntity, "%v", err)
	}
	resp := &repairResponse{Repo: name, StagedVersion: staged.Version, Report: report}
	shouldPromote := promote == "force" || (promote != "never" && report.Improved)
	if shouldPromote {
		if _, err := s.Registry.Promote(name, staged.Version); err != nil {
			return staged, resp, errf(http.StatusInternalServerError, "%v", err)
		}
		mon.ResetWindow()
		resp.Promoted = true
		resp.ActiveVersion = staged.Version
		s.Metrics.Lifecycle("repair.promoted")
		s.logger().LogAttrs(ctx, slog.LevelInfo, "repair.promoted",
			slog.String("repo", name), slog.Int("version", staged.Version),
			slog.Bool("improved", report.Improved))
	} else {
		resp.ActiveVersion = e.Version
		s.Metrics.Lifecycle("repair.not-promoted")
		s.logger().LogAttrs(ctx, slog.LevelInfo, "repair.staged",
			slog.String("repo", name), slog.Int("stagedVersion", staged.Version),
			slog.Bool("improved", report.Improved))
	}
	return staged, resp, nil
}

// repairResponse is the JSON envelope of POST /repos/{name}/repair.
type repairResponse struct {
	Repo          string            `json:"repo"`
	StagedVersion int               `json:"stagedVersion"`
	ActiveVersion int               `json:"activeVersion"`
	Promoted      bool              `json:"promoted"`
	Report        *lifecycle.Report `json:"report"`
}

// versionInfo is one retained version in health/versions listings.
type versionInfo struct {
	Version int                  `json:"version"`
	Active  bool                 `json:"active"`
	Stats   VersionStatsSnapshot `json:"stats"`
}

func (s *Server) versionInfos(name string) ([]versionInfo, int, bool) {
	versions, active, ok := s.Registry.Versions(name)
	if !ok {
		return nil, 0, false
	}
	out := make([]versionInfo, 0, len(versions))
	for _, v := range versions {
		out = append(out, versionInfo{
			Version: v.Version,
			Active:  v.Version == active,
			Stats:   v.Stats.Snapshot(),
		})
	}
	return out, active, true
}

// handleRepoHealth serves GET /repos/{name}/health: the drift monitor
// snapshot, the version history, and — when the repository is drifting
// or ?verdicts=1 — the per-component §3.4 verdict breakdown over the
// buffered failing pages.
func (s *Server) handleRepoHealth(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	e, ok := s.Registry.Get(name)
	if !ok {
		return errf(http.StatusNotFound, "repository %q not loaded", name)
	}
	mon := s.monitor(name)
	health := mon.Health()
	versions, active, _ := s.versionInfos(name)
	resp := map[string]any{
		"repo":          name,
		"activeVersion": active,
		"versions":      versions,
		"monitor":       health,
	}
	if health.Status == "drifting" || r.URL.Query().Get("verdicts") == "1" {
		if v := mon.Verdicts(e.Repo); v != nil {
			resp["verdicts"] = v
		}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleRepoVersions serves GET /repos/{name}/versions.
func (s *Server) handleRepoVersions(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	versions, active, ok := s.versionInfos(name)
	if !ok {
		return errf(http.StatusNotFound, "repository %q not loaded", name)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"repo":          name,
		"activeVersion": active,
		"versions":      versions,
	})
	return nil
}

// handleRepoRepair serves POST /repos/{name}/repair. ?promote=auto
// (default: promote when the shadow evaluation improved), never, force.
func (s *Server) handleRepoRepair(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	promote := r.URL.Query().Get("promote")
	switch promote {
	case "", "auto", "never", "force":
	default:
		return errf(http.StatusBadRequest, "promote must be auto, never or force")
	}
	// Check existence before touching the monitor map: lazily
	// creating monitors for arbitrary unloaded names would let
	// repeated 404s grow server state without bound.
	if _, ok := s.Registry.Get(name); !ok {
		return errf(http.StatusNotFound, "repository %q not loaded", name)
	}
	mon := s.monitor(name)
	if !mon.TryBeginRepair() {
		return errf(http.StatusConflict, "repair already in progress for %q", name)
	}
	defer mon.EndRepair()
	_, resp, err := s.repairRepo(r.Context(), name, promote)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleRepoRollback serves POST /repos/{name}/rollback: atomically
// re-activate the previous retained version (e.g. after a bad promote).
func (s *Server) handleRepoRollback(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	e, err := s.Registry.Rollback(name)
	if err != nil {
		return errf(http.StatusConflict, "%v", err)
	}
	s.monitor(name).ResetWindow()
	s.Metrics.Lifecycle("rollback")
	s.logger().LogAttrs(r.Context(), slog.LevelInfo, "registry.rollback",
		slog.String("repo", name), slog.Int("activeVersion", e.Version))
	writeJSON(w, http.StatusOK, map[string]any{
		"repo":          name,
		"activeVersion": e.Version,
	})
	return nil
}
