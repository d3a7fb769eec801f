package service

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/induct"
	"repro/internal/lifecycle"
	"repro/internal/monitor"
	"repro/internal/rule"
	"repro/internal/store"
	"repro/internal/textutil"
)

// Durability wiring: AttachStore threads one append-only store through
// every stateful subsystem. Boot replays the latest snapshot plus the
// WAL tail, resumes interrupted induction jobs, and only then attaches
// the journal hooks — so replayed mutations are never re-journaled.
// All persistence writes ride mutation paths (publish, promote,
// capture, job transition); the extraction hot path never touches the
// store.

// WAL record types. Records carry a format version in the store
// envelope; these names are the payload contract.
const (
	recRepoStage      = "repo.stage"
	recRepoPromote    = "repo.promote"
	recRepoRemove     = "repo.remove"
	recRouterSig      = "router.sig"
	recInductCapture  = "induct.capture"
	recInductJob      = "induct.job"
	recInductExamples = "induct.examples"
	recMonSchedule    = "monitor.schedule"
	recMonSchedRemove = "monitor.schedule.remove"
	recMonRecrawl     = "monitor.recrawl"
)

// repoRecord journals one registry publish (Load or Stage). Repo holds
// the repository as rule.Repository.AppendJSON writes it.
type repoRecord struct {
	Name    string          `json:"name"`
	Version int             `json:"version"`
	Active  bool            `json:"active,omitempty"`
	Repo    json.RawMessage `json:"repo"`
}

// AppendJSON implements store.JSONAppender: the same bytes as
// json.Marshal, with Repo — compact JSON as json.Marshal writes it —
// copied rather than scanned again.
func (r repoRecord) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"name":`...)
	dst = textutil.AppendJSONString(dst, r.Name)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, int64(r.Version), 10)
	if r.Active {
		dst = append(dst, `,"active":true`...)
	}
	dst = append(dst, `,"repo":`...)
	if r.Repo == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, r.Repo...)
	}
	return append(dst, '}')
}

// decodeRepoRecord is json.Unmarshal into a repoRecord followed by
// rule.Parse of its Repo, which it leaves unset. The canonical payload —
// AppendJSON's members in its order, with any whitespace — takes one
// pass: the repository decodes straight out of the payload. Anything
// else takes that encoding/json route, so the value or the error is the
// same either way.
func decodeRepoRecord(data []byte) (repoRecord, *rule.Repository, error) {
	var rr repoRecord
	var r textutil.JSONReader
	r.Reset(data)
	r.Byte('{')
	r.Key("name")
	rr.Name = r.String()
	r.Byte(',')
	r.Key("version")
	rr.Version = r.Int()
	r.Byte(',')
	if r.IsKey("active") {
		rr.Active = r.Bool()
		r.Byte(',')
	}
	r.Key("repo")
	if raw := r.Tail('}'); r.OK() {
		if repo, err := rule.Parse(raw); err == nil {
			return rr, repo, nil
		}
	}
	rr = repoRecord{}
	if err := json.Unmarshal(data, &rr); err != nil {
		return rr, nil, err
	}
	repo, err := rule.Parse(rr.Repo)
	rr.Repo = nil
	return rr, repo, err
}

// promoteRecord journals an activation (Promote or Rollback).
type promoteRecord struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
}

// removeRecord journals an unload.
type removeRecord struct {
	Name string `json:"name"`
}

// routerRecord journals one routing-table mutation with the full
// resulting signature — replay is a plain upsert, no re-derivation.
type routerRecord struct {
	Name string             `json:"name"`
	Sig  *cluster.Signature `json:"sig"`
	// sigJSON, when set, is Sig already encoded by Sig.AppendJSON.
	sigJSON []byte
}

// AppendJSON implements store.JSONAppender: the same bytes as
// json.Marshal.
func (r routerRecord) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"name":`...)
	dst = textutil.AppendJSONString(dst, r.Name)
	dst = append(dst, `,"sig":`...)
	switch {
	case r.sigJSON != nil:
		dst = append(dst, r.sigJSON...)
	case r.Sig != nil:
		dst = r.Sig.AppendJSON(dst)
	default:
		dst = append(dst, "null"...)
	}
	return append(dst, '}')
}

// decodeRouterRecord is json.Unmarshal into a routerRecord, with the
// canonical payload — AppendJSON's members in its order, a canonical
// signature, any whitespace — taking one pass.
func decodeRouterRecord(data []byte) (routerRecord, error) {
	var rr routerRecord
	var r textutil.JSONReader
	r.Reset(data)
	r.Byte('{')
	r.Key("name")
	rr.Name = r.String()
	r.Byte(',')
	r.Key("sig")
	if raw := r.Tail('}'); r.OK() {
		r.Reset(raw)
		if sig := cluster.DecodeSignature(&r); sig != nil {
			if r.End(); r.OK() {
				rr.Sig = sig
				return rr, nil
			}
		}
	}
	rr = routerRecord{}
	err := json.Unmarshal(data, &rr)
	return rr, err
}

// captureRecord journals one retained unrouted page.
type captureRecord struct {
	URI   string `json:"uri"`
	HTML  string `json:"html"`
	Trace string `json:"trace,omitempty"`
}

// AppendJSON implements store.JSONAppender: the same bytes as
// json.Marshal, in one escaping pass over the page markup.
func (r captureRecord) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"uri":`...)
	dst = textutil.AppendJSONString(dst, r.URI)
	dst = append(dst, `,"html":`...)
	dst = textutil.AppendJSONString(dst, r.HTML)
	if r.Trace != "" {
		dst = append(dst, `,"trace":`...)
		dst = textutil.AppendJSONString(dst, r.Trace)
	}
	return append(dst, '}')
}

// persistedState is the full-daemon snapshot the store compacts the WAL
// into.
type persistedState struct {
	Repos    []repoRecord                       `json:"repos,omitempty"`
	Router   map[string]*cluster.Signature      `json:"router,omitempty"`
	Monitors map[string]*lifecycle.MonitorState `json:"monitors,omitempty"`
	Induct   *induct.EngineState                `json:"induct,omitempty"`
	// Monitor holds the recrawl scheduler: schedule cadence, last-seen
	// record sets and the change feed's retained events + next sequence.
	Monitor *monitor.State `json:"monitor,omitempty"`
}

// scheduleRemoveRecord journals a schedule removal.
type scheduleRemoveRecord struct {
	Repo string `json:"repo"`
}

// AttachStore restores state from the store and wires every subsystem's
// journal into it: snapshot restore → WAL replay → job resume → hook
// attachment → boot compaction (so the next boot starts from a snapshot
// covering everything just replayed; skipped when nothing was restored).
// Call after EnableInduction and before serving traffic.
func (s *Server) AttachStore(st *store.Store) error {
	s.Store = st
	start := time.Now()

	var ps persistedState
	loaded, err := st.LoadSnapshot(&ps)
	if err != nil {
		return fmt.Errorf("service: loading snapshot: %w", err)
	}
	if loaded {
		s.restoreSnapshot(&ps)
	}

	replayed := 0
	if err := st.Replay(func(rec store.Record) error {
		s.applyRecord(rec)
		replayed++
		return nil
	}); err != nil {
		return fmt.Errorf("service: replaying wal: %w", err)
	}

	resumed := 0
	if s.Induct != nil {
		resumed = s.Induct.ResumeJobs()
	}
	s.attachJournals(st)

	s.logger().Info("store.restored",
		"snapshot", loaded, "replayedRecords", replayed,
		"repos", s.Registry.Len(), "resumedJobs", resumed,
		"duration", time.Since(start).String())

	// Boot compaction folds the replayed WAL into a fresh snapshot, so
	// repeated crash/restart cycles never replay the same tail twice. A
	// fresh data directory has nothing to fold.
	if !loaded && replayed == 0 {
		return nil
	}
	if err := st.Compact(s.captureState); err != nil {
		return fmt.Errorf("service: boot compaction: %w", err)
	}
	return nil
}

// SaveSnapshot compacts the WAL into a fresh snapshot of the current
// state. No-op without an attached store.
func (s *Server) SaveSnapshot() error {
	if s.Store == nil {
		return nil
	}
	return s.Store.Compact(s.captureState)
}

// restoreSnapshot applies a loaded snapshot. Individually corrupt
// entries are warned about and skipped — a partially restored daemon
// beats one that refuses to start.
func (s *Server) restoreSnapshot(ps *persistedState) {
	for _, rr := range ps.Repos {
		repo, err := rule.Parse(rr.Repo)
		if err != nil {
			s.logger().Warn("store.restore.bad-repo",
				"repo", rr.Name, "version", rr.Version, "error", err.Error())
			continue
		}
		if err := s.Registry.Restore(rr.Name, rr.Version, repo, rr.Active); err != nil {
			s.logger().Warn("store.restore.bad-repo",
				"repo", rr.Name, "version", rr.Version, "error", err.Error())
		}
	}
	if len(ps.Router) > 0 {
		s.Router.Import(ps.Router)
	}
	for name, ms := range ps.Monitors {
		if ms != nil {
			s.monitor(name).RestoreState(ms)
		}
	}
	if ps.Induct != nil && s.Induct != nil {
		s.Induct.RestoreState(ps.Induct)
	}
	if ps.Monitor != nil && s.Scheduler != nil {
		s.Scheduler.RestoreState(ps.Monitor)
	}
}

// applyRecord replays one WAL record. Unknown types are warned about
// and skipped (a downgraded binary reading a newer log must not die);
// malformed payloads likewise.
func (s *Server) applyRecord(rec store.Record) {
	warn := func(err error) {
		s.logger().Warn("store.replay.skipped",
			"type", rec.Type, "seq", rec.Seq, "error", err.Error())
	}
	switch rec.Type {
	case recRepoStage:
		rr, repo, err := decodeRepoRecord(rec.Data)
		if err != nil {
			warn(err)
			return
		}
		if err := s.Registry.Restore(rr.Name, rr.Version, repo, rr.Active); err != nil {
			warn(err)
		}
	case recRepoPromote:
		var pr promoteRecord
		if err := json.Unmarshal(rec.Data, &pr); err != nil {
			warn(err)
			return
		}
		if _, err := s.Registry.Promote(pr.Name, pr.Version); err != nil {
			warn(err)
		}
	case recRepoRemove:
		var rr removeRecord
		if err := json.Unmarshal(rec.Data, &rr); err != nil {
			warn(err)
			return
		}
		// Mirror RemoveRepo: registry entry, router signature and drift
		// monitor all go.
		s.Registry.Remove(rr.Name)
		s.Router.Unregister(rr.Name)
		s.dropMonitor(rr.Name)
	case recRouterSig:
		rr, err := decodeRouterRecord(rec.Data)
		if err != nil {
			warn(err)
			return
		}
		if rr.Sig != nil {
			s.Router.Import(map[string]*cluster.Signature{rr.Name: rr.Sig})
		}
	case recInductCapture:
		var cr captureRecord
		if err := json.Unmarshal(rec.Data, &cr); err != nil {
			warn(err)
			return
		}
		if s.Induct != nil {
			s.Induct.ApplyCapture(cr.URI, cr.HTML, cr.Trace)
		}
	case recInductJob:
		var j induct.Job
		if err := json.Unmarshal(rec.Data, &j); err != nil {
			warn(err)
			return
		}
		if s.Induct != nil {
			s.Induct.ApplyJobRecord(&j)
		}
	case recInductExamples:
		var ex map[string]map[string][]string
		if err := json.Unmarshal(rec.Data, &ex); err != nil {
			warn(err)
			return
		}
		if s.Induct != nil {
			s.Induct.ApplyExamples(ex)
		}
	case recMonSchedule:
		var sc monitor.ScheduleState
		if err := json.Unmarshal(rec.Data, &sc); err != nil {
			warn(err)
			return
		}
		if s.Scheduler != nil {
			s.Scheduler.ApplyScheduleRecord(&sc)
		}
	case recMonSchedRemove:
		var sr scheduleRemoveRecord
		if err := json.Unmarshal(rec.Data, &sr); err != nil {
			warn(err)
			return
		}
		if s.Scheduler != nil {
			s.Scheduler.ApplyScheduleRemove(sr.Repo)
		}
	case recMonRecrawl:
		var rr monitor.RecrawlRecord
		if err := json.Unmarshal(rec.Data, &rr); err != nil {
			warn(err)
			return
		}
		if s.Scheduler != nil {
			s.Scheduler.ApplyRecrawlRecord(&rr)
		}
	default:
		warn(fmt.Errorf("unknown record type"))
	}
}

// append journals one record, downgrading failures to a warning — a
// full disk must degrade durability, not take the serving path down.
func (s *Server) append(st *store.Store, typ string, data any) {
	if err := st.Append(typ, data); err != nil {
		s.logger().Warn("store.append-failed", "type", typ, "error", err.Error())
	}
}

// attachJournals wires every subsystem's mutation hooks into the store.
// Hooks run under the emitting subsystem's lock, so WAL record order
// matches mutation order; the store appends under its own independent
// lock, keeping the lock order subsystem → store everywhere.
func (s *Server) attachJournals(st *store.Store) {
	// staged hands the signature bytes a loading publish just encoded to
	// the router.sig record that follows for the same signature
	// (LoadRepo registers what Registry.Load published), so a load sorts
	// and encodes each signature once.
	var staged struct {
		sync.Mutex
		sig     *cluster.Signature
		sigJSON []byte
	}
	s.Registry.SetJournal(RegistryJournal{
		Stage: func(name string, version int, active bool, repo *rule.Repository) {
			var sigJSON []byte
			if repo.Signature != nil {
				sigJSON = repo.Signature.AppendJSON(nil)
				if active {
					staged.Lock()
					staged.sig, staged.sigJSON = repo.Signature, sigJSON
					staged.Unlock()
				}
			}
			s.append(st, recRepoStage, repoRecord{
				Name: name, Version: version, Active: active, Repo: repo.AppendJSON(nil, sigJSON),
			})
		},
		Promote: func(name string, version int) {
			s.append(st, recRepoPromote, promoteRecord{Name: name, Version: version})
		},
		Remove: func(name string) {
			s.append(st, recRepoRemove, removeRecord{Name: name})
		},
	})
	s.Router.Journal = func(name string, sig *cluster.Signature) {
		staged.Lock()
		var sigJSON []byte
		if staged.sig == sig {
			sigJSON = staged.sigJSON
		}
		staged.sig, staged.sigJSON = nil, nil
		staged.Unlock()
		s.append(st, recRouterSig, routerRecord{Name: name, Sig: sig, sigJSON: sigJSON})
	}
	if s.Induct != nil {
		s.Induct.SetJournal(induct.Journal{
			Capture: func(uri, html, trace string) {
				s.append(st, recInductCapture, captureRecord{URI: uri, HTML: html, Trace: trace})
			},
			Job: func(j *induct.Job) {
				s.append(st, recInductJob, j)
			},
			Examples: func(ex map[string]map[string][]string) {
				s.append(st, recInductExamples, ex)
			},
		})
	}
	if s.Scheduler != nil {
		s.Scheduler.SetJournal(monitor.Journal{
			Schedule: func(sc *monitor.ScheduleState) {
				s.append(st, recMonSchedule, sc)
			},
			Remove: func(repo string) {
				s.append(st, recMonSchedRemove, scheduleRemoveRecord{Repo: repo})
			},
			Recrawl: func(rr *monitor.RecrawlRecord) {
				s.append(st, recMonRecrawl, rr)
			},
		})
	}
}

// captureState is the store's compaction capture: the full-daemon
// snapshot, encoded.
func (s *Server) captureState() (any, error) {
	return s.exportState().encode()
}

// exportState assembles the full-daemon snapshot. Each subsystem exports
// under its own lock; the store's replay protocol tolerates the exports
// racing concurrent mutations (their WAL records replay idempotently on
// top).
func (s *Server) exportState() *persistedState {
	ps := &persistedState{Router: s.Router.Export()}
	for _, re := range s.Registry.Export() {
		ps.Repos = append(ps.Repos, repoRecord{
			Name: re.Name, Version: re.Version, Active: re.Active, Repo: re.Repo.AppendJSON(nil, nil),
		})
	}
	s.monMu.Lock()
	mons := make(map[string]*lifecycle.Monitor, len(s.monitors))
	for name, m := range s.monitors {
		mons[name] = m
	}
	s.monMu.Unlock()
	if len(mons) > 0 {
		ps.Monitors = make(map[string]*lifecycle.MonitorState, len(mons))
		for name, m := range mons {
			ps.Monitors[name] = m.ExportState()
		}
	}
	if s.Induct != nil {
		ps.Induct = s.Induct.ExportState()
	}
	if s.Scheduler != nil {
		ps.Monitor = s.Scheduler.ExportState()
	}
	return ps
}

// encode returns json.Marshal(ps)'s bytes. The repository and router
// records, which hold the signatures, take their direct codecs;
// encoding/json writes the rest.
func (ps *persistedState) encode() (json.RawMessage, error) {
	rest, err := json.Marshal(persistedState{Monitors: ps.Monitors, Induct: ps.Induct, Monitor: ps.Monitor})
	if err != nil {
		return nil, err
	}
	dst := []byte{'{'}
	if len(ps.Repos) > 0 {
		dst = append(dst, `"repos":[`...)
		for i, rr := range ps.Repos {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = rr.AppendJSON(dst)
		}
		dst = append(dst, ']')
	}
	if len(ps.Router) > 0 {
		if len(dst) > 1 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"router":{`...)
		for i, name := range slices.Sorted(maps.Keys(ps.Router)) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(textutil.AppendJSONString(dst, name), ':')
			if sig := ps.Router[name]; sig != nil {
				dst = sig.AppendJSON(dst)
			} else {
				dst = append(dst, "null"...)
			}
		}
		dst = append(dst, '}')
	}
	if len(rest) > len("{}") {
		if len(dst) > 1 {
			dst = append(dst, ',')
		}
		dst = append(dst, rest[1:len(rest)-1]...)
	}
	return append(dst, '}'), nil
}
