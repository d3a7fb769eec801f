package service

import (
	"encoding/json"
	"log/slog"
	"net/http"

	"repro/internal/induct"
	"repro/internal/resilient"
	"repro/internal/rule"
)

// Wrapper-induction wiring: the induct.Engine buffers the pages the
// router could not place, clusters them by signature, and runs the
// paper's build/refine loop over stable buckets as background jobs.
// The service supplies the two ends the engine is agnostic about — the
// stager (the versioned registry's Stage) and the promote path (registry
// promote + router registration + a fresh drift window).

// EnableInduction installs a wrapper-induction engine wired to this
// server: staged repositories land in the versioned registry, and the
// lifecycle monitors' golden values join the oracle chain (a cluster
// that drifted beyond routability can be re-induced from its remembered
// values without an operator). Call before serving traffic.
func (s *Server) EnableInduction(cfg induct.Config) *induct.Engine {
	if cfg.Logger == nil && s.Log != nil {
		cfg.Logger = s.Log
	}
	// Chain (don't replace) any caller-supplied panic hook: a job panic
	// always lands in the panics_recovered metric under the "induct"
	// stage.
	prev := cfg.OnPanic
	cfg.OnPanic = func(pe *resilient.PanicError) {
		s.Metrics.PanicRecovered("induct")
		if prev != nil {
			prev(pe)
		}
	}
	eng := induct.NewEngine(cfg, induct.StagerFunc(func(name string, repo *rule.Repository) (int, error) {
		e, err := s.Registry.Stage(name, repo)
		if err != nil {
			return 0, err
		}
		return e.Version, nil
	}))
	eng.AddTruth(induct.TruthFunc(s.lifecycleGolden))
	s.Induct = eng
	return eng
}

// lifecycleGolden scans the drift monitors for remembered golden values
// of a URI — the no-operator truth source of the induction oracle chain.
func (s *Server) lifecycleGolden(uri string) map[string][]string {
	s.monMu.Lock()
	defer s.monMu.Unlock()
	for _, m := range s.monitors {
		if vals := m.GoldenValues(uri); vals != nil {
			return vals
		}
	}
	return nil
}

// requireInduct gates the induction endpoints on the engine being
// enabled.
func (s *Server) requireInduct() (*induct.Engine, error) {
	if s.Induct == nil {
		return nil, errf(http.StatusNotImplemented,
			"induction disabled (start extractd with -induct)")
	}
	return s.Induct, nil
}

// induceRequest is the JSON body of POST /induce. Every field is
// optional: an empty body just runs a planning pass over the current
// buffer (useful after truth arrived out of band).
type induceRequest struct {
	// Examples supplies operator-selected component values, keyed by
	// page URI then component name — the API stand-in for the
	// Retrozilla user pointing at values in the browser.
	Examples map[string]map[string][]string `json:"examples,omitempty"`
}

// handleInduce serves POST /induce: merge operator examples into the
// oracle, run the planner, and report the buffer and queue state.
func (s *Server) handleInduce(w http.ResponseWriter, r *http.Request) error {
	eng, err := s.requireInduct()
	if err != nil {
		return err
	}
	body, err := s.readBody(r)
	if err != nil {
		return err
	}
	var req induceRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return errf(http.StatusBadRequest, "decoding body: %v", err)
		}
	}
	if len(req.Examples) > 0 {
		eng.AddExamples(req.Examples)
	}
	queued := eng.Plan()
	writeJSON(w, http.StatusOK, map[string]any{
		"buffered": eng.Buffer().Len(),
		"buckets":  eng.Buffer().Buckets(),
		"queued":   queued,
		"jobs":     eng.Counts(),
	})
	return nil
}

// handleJobs serves GET /jobs: every induction job plus the unrouted
// buckets still waiting for enough pages or examples.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) error {
	eng, err := s.requireInduct()
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":    eng.Jobs(),
		"buckets": eng.Buffer().Buckets(),
		"counts":  eng.Counts(),
	})
	return nil
}

// handleJob serves GET /jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) error {
	eng, err := s.requireInduct()
	if err != nil {
		return err
	}
	j, ok := eng.Job(r.PathValue("id"))
	if !ok {
		return errf(http.StatusNotFound, "no induction job %q", r.PathValue("id"))
	}
	writeJSON(w, http.StatusOK, j)
	return nil
}

// handleJobPromote serves POST /jobs/{id}/promote: the human half of the
// loop. The staged repository version becomes active, its signature is
// registered with the router (from now on the cluster's pages route),
// and the job's bucket is released. The engine's Promote claim makes
// the sequence atomic — a concurrent promote or cancel of the same job
// fails before any registry or router state changes.
func (s *Server) handleJobPromote(w http.ResponseWriter, r *http.Request) error {
	eng, err := s.requireInduct()
	if err != nil {
		return err
	}
	id := r.PathValue("id")
	if _, ok := eng.Job(id); !ok {
		return errf(http.StatusNotFound, "no induction job %q", id)
	}
	var active *RepoEntry
	var promoted *induct.Job
	if promoted, err = eng.Promote(id, func(j *induct.Job) error {
		e, err := s.Registry.Promote(j.Cluster, j.Version)
		if err != nil {
			return err
		}
		if e.Repo.Signature != nil {
			s.Router.Register(e.Name, e.Repo.Signature)
		}
		s.monitor(e.Name).ResetWindow()
		active = e
		return nil
	}); err != nil {
		return errf(http.StatusConflict, "%v", err)
	}
	s.Metrics.Lifecycle("induct.promoted")
	// The job's Trace names the ingest exchange that triggered the
	// induction; the request context carries the promote call's own
	// trace — both ends of the thread land in one log line.
	s.logger().LogAttrs(r.Context(), slog.LevelInfo, "induct.promoted",
		slog.String("job", id), slog.String("repo", active.Name),
		slog.Int("version", active.Version),
		slog.String("jobTrace", promoted.Trace))
	writeJSON(w, http.StatusOK, map[string]any{
		"job":           id,
		"repo":          active.Name,
		"activeVersion": active.Version,
		"components":    active.Repo.ComponentNames(),
	})
	return nil
}

// handleJobCancel serves POST /jobs/{id}/cancel.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) error {
	eng, err := s.requireInduct()
	if err != nil {
		return err
	}
	j, err := eng.Cancel(r.PathValue("id"))
	if err != nil {
		return errf(http.StatusConflict, "%v", err)
	}
	writeJSON(w, http.StatusOK, j)
	return nil
}
