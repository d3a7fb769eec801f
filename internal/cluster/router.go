package cluster

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
)

// DefaultRouteThreshold is the minimum signature match score for a page
// to be routed to a cluster. It sits below the page-to-page clustering
// threshold (0.65): a signature averages many pages, so genuine members
// score lower against it than against their nearest neighbour, while
// off-cluster pages still land far below.
const DefaultRouteThreshold = 0.45

// Route is one routing decision.
type Route struct {
	// Name of the best-matching registered cluster.
	Name string
	// Score is its signature match in [0,1].
	Score float64
	// Runner-up diagnostics: the second-best cluster and score (empty
	// when fewer than two clusters are registered).
	SecondName  string
	SecondScore float64
}

// Router classifies unseen pages to the best-matching registered page
// cluster — the online counterpart of ClusterPages. Repositories register
// the signature of the cluster their rules were built from; a page whose
// best match clears the threshold is routed there, anything else is
// reported unrouted. All methods are safe for concurrent use.
type Router struct {
	// Weights for signature matching (zero value: DefaultWeights).
	Weights Weights
	// Threshold below which a page is unrouted (zero: DefaultRouteThreshold).
	Threshold float64

	mu   sync.RWMutex
	sigs map[string]*Signature
	// fast caches (host, normalized URL pattern) → cluster decisions
	// learned from full signature matches. URL pattern analysis is already
	// one of the clustering heuristics ([7][20]); on the ingest hot path a
	// learned pattern routes a page without fingerprinting its content at
	// all. See RouteLazy for the verification and invalidation discipline.
	fast map[string]*fastRoute

	// Journal, when set, receives every signature mutation (Register
	// replacements and Observe folds) with a clone of the resulting
	// signature, for the persistence WAL. Called under r.mu so record
	// order matches mutation order; attach only after boot replay, and
	// never call back into the router from the hook.
	Journal func(name string, sig *Signature)
}

// NewRouter creates an empty router with the given threshold (0 uses
// DefaultRouteThreshold).
func NewRouter(threshold float64) *Router {
	return &Router{Threshold: threshold, sigs: map[string]*Signature{}}
}

func (r *Router) weights() Weights {
	if r.Weights == (Weights{}) {
		return DefaultWeights()
	}
	return r.Weights
}

func (r *Router) threshold() float64 {
	if r.Threshold == 0 {
		return DefaultRouteThreshold
	}
	return r.Threshold
}

// Register installs (or replaces) the signature of a named cluster. The
// signature is cloned, so later Observe calls on the router never mutate
// the caller's copy.
func (r *Router) Register(name string, sig *Signature) {
	if sig == nil || name == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sigs == nil {
		r.sigs = map[string]*Signature{}
	}
	r.sigs[name] = sig.Clone()
	r.invalidateFastLocked()
	if r.Journal != nil {
		r.Journal(name, sig.Clone())
	}
}

// Unregister removes a cluster from the routing table.
func (r *Router) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sigs, name)
	r.invalidateFastLocked()
}

// Observe folds a page known to belong to the named cluster into its
// signature — the online-learning path: every extraction the caller
// explicitly targeted at a repository is evidence of what that
// repository's pages look like. Unregistered names start a fresh
// signature, so a repository loaded without one becomes routable once
// explicit traffic has flowed.
func (r *Router) Observe(name string, f Features) {
	if name == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sigs == nil {
		r.sigs = map[string]*Signature{}
	}
	sig, ok := r.sigs[name]
	if !ok {
		sig = NewSignature()
		r.sigs[name] = sig
	}
	sig.Add(f)
	r.invalidateFastLocked()
	if r.Journal != nil {
		r.Journal(name, sig.Clone())
	}
}

// SignaturePages reports how many pages the named cluster's signature
// has absorbed (0 when none is registered) — callers use it to stop
// online learning once a signature has converged.
func (r *Router) SignaturePages(name string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if sig, ok := r.sigs[name]; ok {
		return sig.Pages
	}
	return 0
}

// Len reports how many clusters are registered.
func (r *Router) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sigs)
}

// Names lists the registered clusters, sorted.
func (r *Router) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.sigs))
	for n := range r.sigs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// urlVerifyEvery is the sampled-verification cadence of the URL fast
// path: each learned pattern serves this many fast routes, then the next
// page pays a full fingerprint match to confirm the cached decision still
// holds. Amortized, the fingerprint walk runs on ~1/16 of steady-state
// traffic while signature drift or a repository swap is still caught
// within one verification window per pattern.
const urlVerifyEvery = 16

// fastRoute is one learned URL-pattern decision.
type fastRoute struct {
	name  string
	score float64 // score of the last full verification
	// ambiguous marks a pattern observed routing to more than one cluster
	// (two repositories on one site with the same URL shape): such a
	// pattern can never decide a page on its own, so it full-routes forever.
	ambiguous bool
	hits      atomic.Uint32
}

// urlKey normalizes a URI to its routing pattern key: host plus the
// digit-collapsed path segments, the same normalization splitURI gives
// the URL feature of the fingerprint — fused into one pass and one
// allocation, since every ingest page pays this before the fast lookup.
func urlKey(uri string) string {
	s := uri
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	i := strings.IndexAny(s, "/?")
	if i < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	b.WriteString(s[:i]) // host
	path := s[i:]
	if q := strings.IndexByte(path, '?'); q >= 0 {
		path = path[:q]
	}
	segStarted, inDigits := false, false
	for j := 0; j < len(path); j++ {
		switch c := path[j]; {
		case c == '/':
			segStarted, inDigits = false, false
		case c >= '0' && c <= '9':
			if !segStarted {
				b.WriteByte('\n')
				segStarted = true
			}
			if !inDigits {
				b.WriteByte('#')
				inDigits = true
			}
		default:
			if !segStarted {
				b.WriteByte('\n')
				segStarted = true
			}
			inDigits = false
			if c < utf8.RuneSelf {
				if c >= 'A' && c <= 'Z' {
					c += 'a' - 'A'
				}
				b.WriteByte(c)
			} else {
				r, size := utf8.DecodeRuneInString(path[j:])
				b.WriteRune(unicode.ToLower(r))
				j += size - 1
			}
		}
	}
	return b.String()
}

// RouteLazy classifies a page by URI alone when a learned URL pattern
// decides, calling fp for the full content fingerprint only when it must:
// the first page of a pattern, patterns observed routing to more than one
// cluster, and a deterministic 1-in-urlVerifyEvery re-verification of
// every cached pattern. A verification that disagrees with the cache
// evicts the pattern (and any signature mutation clears the whole table),
// so a stale decision survives at most one verification window. The fast
// path returns the score of the last verified full match and no runner-up
// diagnostics; everything else is identical to Route(fp()).
func (r *Router) RouteLazy(uri string, fp func() Features) (Route, bool) {
	key := urlKey(uri)
	// learnFast updates an entry in place under the write lock, so its
	// fields are read under the read lock; hits is atomic and outlives it.
	r.mu.RLock()
	e := r.fast[key]
	var cached Route
	fast := e != nil && !e.ambiguous
	if fast {
		cached = Route{Name: e.name, Score: e.score}
	}
	r.mu.RUnlock()
	if fast && e.hits.Add(1)%urlVerifyEvery != 0 {
		return cached, true
	}
	route, ok := r.Route(fp())
	r.learnFast(key, route, ok)
	return route, ok
}

// learnFast folds one full routing decision into the URL fast table.
func (r *Router) learnFast(key string, route Route, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.fast[key]
	switch {
	case !ok:
		// The pattern no longer clears the threshold (drift, or a
		// near-threshold page): forget it and relearn from future
		// confident matches. Ambiguous markers stay — they record a
		// structural property of the site, not a score.
		if e != nil && !e.ambiguous {
			delete(r.fast, key)
		}
	case e == nil:
		if r.fast == nil {
			r.fast = map[string]*fastRoute{}
		}
		r.fast[key] = &fastRoute{name: route.Name, score: route.Score}
	case e.name != route.Name:
		e.ambiguous = true
	default:
		e.score = route.Score
	}
}

// invalidateFastLocked drops every learned URL decision; callers hold
// r.mu. Every signature mutation invalidates: the table caches the
// *outcome* of matching against the signature set, and any change to that
// set may change any outcome.
func (r *Router) invalidateFastLocked() {
	r.fast = nil
}

// Route classifies a page fingerprint. ok is false when no cluster is
// registered or no match clears the threshold; the best-effort Route is
// still returned for diagnostics (an operator tuning the threshold wants
// to see the near-misses).
func (r *Router) Route(f Features) (Route, bool) {
	// One sanitize pass serves every signature comparison below.
	f = sanitizeFeatures(f)
	r.mu.RLock()
	defer r.mu.RUnlock()
	w := r.weights()
	// Sorted iteration keeps tie-breaks deterministic across runs.
	names := make([]string, 0, len(r.sigs))
	for n := range r.sigs {
		names = append(names, n)
	}
	sort.Strings(names)
	var best Route
	for _, name := range names {
		score := r.sigs[name].matchClean(f, w)
		if best.Name == "" || score > best.Score {
			best.SecondName, best.SecondScore = best.Name, best.Score
			best.Name, best.Score = name, score
		} else if best.SecondName == "" || score > best.SecondScore {
			best.SecondName, best.SecondScore = name, score
		}
	}
	return best, best.Name != "" && best.Score >= r.threshold()
}

// RoutePage is Route over a raw page (fingerprint computed here).
func (r *Router) RoutePage(p PageInfo) (Route, bool) {
	return r.Route(Fingerprint(p))
}

// Export clones the routing table for the persistence snapshot.
func (r *Router) Export() map[string]*Signature {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]*Signature, len(r.sigs))
	for name, sig := range r.sigs {
		out[name] = sig.Clone()
	}
	return out
}

// Import upserts cloned signatures into the routing table — the boot
// restore path. Unlike Register it takes whole-signature state, so a
// replayed Observe-learned signature lands with its full page count
// and feature weights rather than restarting from one page.
func (r *Router) Import(sigs map[string]*Signature) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sigs == nil {
		r.sigs = map[string]*Signature{}
	}
	for name, sig := range sigs {
		if name == "" || sig == nil {
			continue
		}
		r.sigs[name] = sig.Clone()
	}
	r.invalidateFastLocked()
}
