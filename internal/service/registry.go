// Package service turns the paper's offline rule *execution* step (§4)
// into a long-running concurrent system: a registry of versioned rule
// repositories that can be hot-loaded, staged, promoted and rolled back
// at runtime, a pool that bounds concurrent extractions, request
// metrics, and the HTTP handlers that expose them as the extractd daemon.
//
// The split mirrors the paper's architecture: rule *construction*
// (internal/core, driven by retrozilla) stays an offline activity; its
// artifact — the rule repository — is what operators (or the lifecycle
// auto-repairer) publish to a running extractd, which then serves
// extraction traffic against it.
package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/extract"
	"repro/internal/rule"
)

// RepoEntry is one immutable repository version: the source repository,
// its compiled concurrency-safe processor, and live counters for traffic
// served while this version was active. Entries are never mutated after
// creation — promote and rollback only swap which entry is active — so a
// request that holds an entry keeps a fully consistent (repo, processor)
// pair no matter what the registry does meanwhile.
type RepoEntry struct {
	Name string
	Repo *rule.Repository
	Proc *extract.Processor
	// Version is the monotonic version id under this name, starting at 1.
	// Every Load or Stage mints a fresh id; ids are never reused, so
	// clients can detect that rules changed under them.
	Version int
	// Generation aliases Version (the PR-1 wire name).
	Generation int
	// Stats counts extraction traffic served by this version.
	Stats *VersionStats
}

// VersionStats accumulates per-version extraction counters.
type VersionStats struct {
	pages       atomic.Int64
	failedPages atomic.Int64
	failures    atomic.Int64
}

// Record counts one extracted page and its detected failure count.
func (s *VersionStats) Record(failures int) {
	s.pages.Add(1)
	if failures > 0 {
		s.failedPages.Add(1)
		s.failures.Add(int64(failures))
	}
}

// VersionStatsSnapshot is a point-in-time copy of a version's counters.
type VersionStatsSnapshot struct {
	Pages       int64 `json:"pages"`
	FailedPages int64 `json:"failedPages"`
	Failures    int64 `json:"failures"`
}

// Snapshot copies the counters.
func (s *VersionStats) Snapshot() VersionStatsSnapshot {
	return VersionStatsSnapshot{
		Pages:       s.pages.Load(),
		FailedPages: s.failedPages.Load(),
		Failures:    s.failures.Load(),
	}
}

// repoVersions holds every retained version of one name plus which one is
// active. Guarded by the registry mutex.
type repoVersions struct {
	versions []*RepoEntry // ascending Version order
	active   *RepoEntry   // nil until the first promote
	next     int          // next version id to mint
}

func (rv *repoVersions) find(version int) *RepoEntry {
	for _, e := range rv.versions {
		if e.Version == version {
			return e
		}
	}
	return nil
}

// Registry is a concurrency-safe map of named, versioned rule
// repositories. Load and Stage compile eagerly (via extract.NewProcessor
// → rule.CompileAll), and a Processor is immutable once built, so every
// entry handed out is safe for concurrent ExtractPage calls and a bad repository is
// rejected at publish time, not at request time.
type Registry struct {
	mu    sync.RWMutex
	repos map[string]*repoVersions
	// MaxVersions bounds retained versions per name (default 8). The
	// active version is never evicted.
	MaxVersions int
	// journal receives publish/promote/remove mutations for the
	// persistence WAL. Emitted under g.mu so record order matches
	// mutation order; attached via SetJournal only after boot replay.
	journal RegistryJournal
}

// RegistryJournal is the registry's persistence hook set: each func
// (any may be nil) receives one class of mutation for the write-ahead
// log. Hooks are called under the registry lock — they must only
// append to the log, never call back into the registry.
type RegistryJournal struct {
	// Stage receives every newly minted version; active reports whether
	// the publish also activated it (Load does, Stage does not).
	Stage func(name string, version int, active bool, repo *rule.Repository)
	// Promote receives every activation of an already-retained version
	// (Promote, and Rollback with the reverted-to version).
	Promote func(name string, version int)
	// Remove receives every unregistration.
	Remove func(name string)
}

// SetJournal attaches the persistence hooks. Call after boot replay
// has finished, so replayed mutations are not re-journaled.
func (g *Registry) SetJournal(j RegistryJournal) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.journal = j
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{repos: map[string]*repoVersions{}}
}

func (g *Registry) maxVersions() int {
	if g.MaxVersions > 0 {
		return g.MaxVersions
	}
	return 8
}

// compile validates and compiles a repository into an (unregistered)
// entry, resolving the effective name.
func compileEntry(name string, repo *rule.Repository) (*RepoEntry, error) {
	if repo == nil {
		return nil, fmt.Errorf("service: nil repository")
	}
	if name == "" {
		name = repo.Cluster
	}
	if name == "" {
		return nil, fmt.Errorf("service: repository has no name")
	}
	proc, err := extract.NewProcessor(repo)
	if err != nil {
		return nil, fmt.Errorf("service: compiling %q: %w", name, err)
	}
	return &RepoEntry{Name: name, Repo: repo, Proc: proc, Stats: &VersionStats{}}, nil
}

// stageLocked registers a compiled entry as a new version under its name,
// minting the version id and enforcing retention. Caller holds g.mu.
func (g *Registry) stageLocked(e *RepoEntry) *repoVersions {
	rv, ok := g.repos[e.Name]
	if !ok {
		rv = &repoVersions{next: 1}
		g.repos[e.Name] = rv
	}
	e.Version = rv.next
	e.Generation = e.Version
	rv.next++
	rv.versions = append(rv.versions, e)
	// Evict oldest versions beyond the retention cap. The active entry
	// and the one just staged are never evicted, so the effective floor
	// is two retained versions regardless of MaxVersions.
	maxN := g.maxVersions()
	for len(rv.versions) > maxN {
		evicted := false
		for i, old := range rv.versions {
			if old != rv.active && old != e {
				rv.versions = append(rv.versions[:i], rv.versions[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
	return rv
}

// Load validates, compiles and registers a repository under name (the
// repository's cluster name when name is empty) as a new version, and
// promotes it atomically — in-flight extractions keep using the entry
// they already hold; new requests see the new one.
func (g *Registry) Load(name string, repo *rule.Repository) (*RepoEntry, error) {
	e, err := compileEntry(name, repo)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	rv := g.stageLocked(e)
	rv.active = e
	if g.journal.Stage != nil {
		g.journal.Stage(e.Name, e.Version, true, repo)
	}
	return e, nil
}

// Stage registers a repository as a new version *without* activating it:
// traffic keeps flowing to the current active version while the staged
// one is shadow-evaluated. Promote makes it live.
func (g *Registry) Stage(name string, repo *rule.Repository) (*RepoEntry, error) {
	e, err := compileEntry(name, repo)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.stageLocked(e)
	if g.journal.Stage != nil {
		g.journal.Stage(e.Name, e.Version, false, repo)
	}
	return e, nil
}

// Promote atomically makes the given retained version the active one.
func (g *Registry) Promote(name string, version int) (*RepoEntry, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rv, ok := g.repos[name]
	if !ok {
		return nil, fmt.Errorf("service: repository %q not loaded", name)
	}
	e := rv.find(version)
	if e == nil {
		return nil, fmt.Errorf("service: repository %q has no version %d", name, version)
	}
	rv.active = e
	if g.journal.Promote != nil {
		g.journal.Promote(name, version)
	}
	return e, nil
}

// Rollback atomically reverts to the newest retained version older than
// the active one, returning it.
func (g *Registry) Rollback(name string) (*RepoEntry, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rv, ok := g.repos[name]
	if !ok || rv.active == nil {
		return nil, fmt.Errorf("service: repository %q not loaded", name)
	}
	var prev *RepoEntry
	for _, e := range rv.versions {
		if e.Version < rv.active.Version {
			prev = e
		}
	}
	if prev == nil {
		return nil, fmt.Errorf("service: repository %q has no older version to roll back to", name)
	}
	rv.active = prev
	if g.journal.Promote != nil {
		g.journal.Promote(name, prev.Version)
	}
	return prev, nil
}

// Get returns the active entry for name.
func (g *Registry) Get(name string) (*RepoEntry, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	rv, ok := g.repos[name]
	if !ok || rv.active == nil {
		return nil, false
	}
	return rv.active, true
}

// Versions returns every retained version of a name (ascending) and the
// active version id (0 when none is active).
func (g *Registry) Versions(name string) ([]*RepoEntry, int, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	rv, ok := g.repos[name]
	if !ok {
		return nil, 0, false
	}
	out := append([]*RepoEntry(nil), rv.versions...)
	activeV := 0
	if rv.active != nil {
		activeV = rv.active.Version
	}
	return out, activeV, true
}

// Remove unregisters a repository and all its versions, reporting whether
// it existed.
func (g *Registry) Remove(name string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.repos[name]
	delete(g.repos, name)
	if ok && g.journal.Remove != nil {
		g.journal.Remove(name)
	}
	return ok
}

// List returns the active entries sorted by name.
func (g *Registry) List() []*RepoEntry {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*RepoEntry, 0, len(g.repos))
	for _, rv := range g.repos {
		if rv.active != nil {
			out = append(out, rv.active)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RepoVersionCount is one retained version's extraction counters as the
// metrics snapshot reports them — the per-repo/per-version view behind
// the extractd_repo_pages_total family.
type RepoVersionCount struct {
	Repo        string `json:"repo"`
	Version     int    `json:"version"`
	Active      bool   `json:"active"`
	Pages       int64  `json:"pages"`
	FailedPages int64  `json:"failedPages"`
	Failures    int64  `json:"failures"`
}

// CountsSnapshot copies every retained version's traffic counters,
// sorted by repo name then version — deterministic output for the
// metrics exposition.
func (g *Registry) CountsSnapshot() []RepoVersionCount {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []RepoVersionCount
	for name, rv := range g.repos {
		for _, e := range rv.versions {
			s := e.Stats.Snapshot()
			out = append(out, RepoVersionCount{
				Repo: name, Version: e.Version, Active: e == rv.active,
				Pages: s.Pages, FailedPages: s.FailedPages, Failures: s.Failures,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Repo != out[j].Repo {
			return out[i].Repo < out[j].Repo
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// Len returns the number of repositories with an active version.
func (g *Registry) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, rv := range g.repos {
		if rv.active != nil {
			n++
		}
	}
	return n
}

// Restore registers a repository at an explicit version id — the boot
// replay path. Unlike Stage it never mints an id: replaying the same
// publish records in their original order reproduces the original
// version numbering, activation and retention decisions exactly.
// Upserts by (name, version) so a snapshot and the WAL tail may
// overlap.
func (g *Registry) Restore(name string, version int, repo *rule.Repository, active bool) error {
	if version <= 0 {
		return fmt.Errorf("service: restore %q: bad version %d", name, version)
	}
	e, err := compileEntry(name, repo)
	if err != nil {
		return err
	}
	e.Version = version
	e.Generation = version
	g.mu.Lock()
	defer g.mu.Unlock()
	rv, ok := g.repos[e.Name]
	if !ok {
		rv = &repoVersions{next: 1}
		g.repos[e.Name] = rv
	}
	replaced := false
	for i, old := range rv.versions {
		if old.Version == version {
			if rv.active == old {
				rv.active = e
			}
			rv.versions[i] = e
			replaced = true
			break
		}
	}
	if !replaced {
		rv.versions = append(rv.versions, e)
		sort.Slice(rv.versions, func(i, j int) bool {
			return rv.versions[i].Version < rv.versions[j].Version
		})
	}
	if version >= rv.next {
		rv.next = version + 1
	}
	if active {
		rv.active = e
	}
	// The same retention rule Stage applies, so replay converges on the
	// same retained set.
	maxN := g.maxVersions()
	for len(rv.versions) > maxN {
		evicted := false
		for i, old := range rv.versions {
			if old != rv.active && old != e {
				rv.versions = append(rv.versions[:i], rv.versions[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
	return nil
}

// RepoExport is one retained version, shaped for the persistence
// snapshot.
type RepoExport struct {
	Name    string
	Version int
	Active  bool
	Repo    *rule.Repository
}

// Export copies every retained version (sorted by name then version)
// for the persistence snapshot.
func (g *Registry) Export() []RepoExport {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []RepoExport
	for name, rv := range g.repos {
		for _, e := range rv.versions {
			out = append(out, RepoExport{
				Name: name, Version: e.Version, Active: e == rv.active, Repo: e.Repo,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}
