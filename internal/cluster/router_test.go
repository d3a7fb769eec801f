package cluster_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"

	"repro/internal/cluster"
)

func clusterPageInfos(cl *corpus.Cluster) []cluster.PageInfo {
	out := make([]cluster.PageInfo, 0, len(cl.Pages))
	for _, p := range cl.Pages {
		out = append(out, cluster.PageInfo{URI: p.URI, Doc: p.Doc})
	}
	return out
}

// TestRouterAccuracyOnHeldOutPages trains signatures on half of each
// generating cluster and routes the held-out half: the acceptance bar is
// ≥95% accuracy with zero cross-cluster confusions.
func TestRouterAccuracyOnHeldOutPages(t *testing.T) {
	movies := clusterPageInfos(corpus.GenerateMovies(corpus.DefaultMovieProfile(11, 30)))
	books := clusterPageInfos(corpus.GenerateBooks(corpus.DefaultBookProfile(12, 30)))
	stocks := clusterPageInfos(corpus.GenerateStocks(corpus.DefaultStockProfile(13, 30)))

	r := cluster.NewRouter(0)
	r.Register("movies", cluster.SignatureOf(movies[:15]))
	r.Register("books", cluster.SignatureOf(books[:15]))
	r.Register("stocks", cluster.SignatureOf(stocks[:15]))

	total, correct := 0, 0
	for name, held := range map[string][]cluster.PageInfo{
		"movies": movies[15:], "books": books[15:], "stocks": stocks[15:],
	} {
		for _, p := range held {
			total++
			route, ok := r.RoutePage(p)
			if !ok {
				t.Logf("unrouted %s page %s (best %q %.3f)", name, p.URI, route.Name, route.Score)
				continue
			}
			if route.Name == name {
				correct++
			} else {
				t.Errorf("%s page %s routed to %q (%.3f, runner-up %q %.3f)",
					name, p.URI, route.Name, route.Score, route.SecondName, route.SecondScore)
			}
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.95 {
		t.Fatalf("routing accuracy %.3f (%d/%d), want >= 0.95", acc, correct, total)
	}
}

// TestRouterUnroutedBelowThreshold: a page from a cluster the router has
// never seen must not be claimed by the registered signatures.
func TestRouterUnroutedBelowThreshold(t *testing.T) {
	movies := clusterPageInfos(corpus.GenerateMovies(corpus.DefaultMovieProfile(21, 20)))
	forum := corpus.GenerateForum(corpus.DefaultForumProfile(22, 10))

	r := cluster.NewRouter(0)
	r.Register("movies", cluster.SignatureOf(movies))

	unrouted := 0
	for _, p := range forum.Pages {
		if route, ok := r.RoutePage(cluster.PageInfo{URI: p.URI, Doc: p.Doc}); !ok {
			unrouted++
		} else {
			t.Logf("forum page %s claimed by %q at %.3f", p.URI, route.Name, route.Score)
		}
	}
	if unrouted < len(forum.Pages)*8/10 {
		t.Errorf("only %d/%d alien pages unrouted", unrouted, len(forum.Pages))
	}
}

// TestRouterEmpty: routing with no registered signatures reports !ok.
func TestRouterEmpty(t *testing.T) {
	movies := clusterPageInfos(corpus.GenerateMovies(corpus.DefaultMovieProfile(23, 1)))
	if route, ok := cluster.NewRouter(0).RoutePage(movies[0]); ok {
		t.Errorf("empty router routed to %q", route.Name)
	}
}

// TestRouterObserveLearnsCluster: a cluster registered with no signature
// becomes routable after Observe calls — the service's learning path.
func TestRouterObserveLearnsCluster(t *testing.T) {
	movies := clusterPageInfos(corpus.GenerateMovies(corpus.DefaultMovieProfile(24, 20)))
	r := cluster.NewRouter(0)
	for _, p := range movies[:10] {
		r.Observe("movies", cluster.Fingerprint(p))
	}
	correct := 0
	for _, p := range movies[10:] {
		if route, ok := r.RoutePage(p); ok && route.Name == "movies" {
			correct++
		}
	}
	if correct < 9 {
		t.Errorf("only %d/10 held-out pages routed after learning", correct)
	}
}

// TestRouterRegisterClones: mutating the caller's signature after
// Register must not affect routing.
func TestRouterRegisterClones(t *testing.T) {
	movies := clusterPageInfos(corpus.GenerateMovies(corpus.DefaultMovieProfile(25, 10)))
	sig := cluster.SignatureOf(movies[:5])
	r := cluster.NewRouter(0)
	r.Register("movies", sig)
	// Poison the caller's copy.
	sig.Pages = 1
	for k := range sig.Tags {
		delete(sig.Tags, k)
	}
	if route, ok := r.RoutePage(movies[6]); !ok || route.Name != "movies" {
		t.Errorf("router affected by caller-side mutation: route=%+v ok=%v", route, ok)
	}
}

// TestSignatureJSONRoundTrip: serialized signatures reproduce identical
// match scores, and the encoding is deterministic.
func TestSignatureJSONRoundTrip(t *testing.T) {
	movies := clusterPageInfos(corpus.GenerateMovies(corpus.DefaultMovieProfile(26, 12)))
	sig := cluster.SignatureOf(movies[:8])
	data, err := json.Marshal(sig)
	if err != nil {
		t.Fatal(err)
	}
	data2, _ := json.Marshal(sig)
	if string(data) != string(data2) {
		t.Error("signature encoding not deterministic")
	}
	var back cluster.Signature
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	f := cluster.Fingerprint(movies[9])
	if a, b := sig.Match(f, cluster.DefaultWeights()), back.Match(f, cluster.DefaultWeights()); a != b {
		t.Errorf("match score changed across round-trip: %f vs %f", a, b)
	}
}

// TestRouterEmptySignatureNeverClaims: a registered-but-empty signature
// (zero pages absorbed) scores 0 against everything and must leave pages
// unrouted rather than claiming them — the PR-4 edge where a repository
// is loaded before any routing evidence exists.
func TestRouterEmptySignatureNeverClaims(t *testing.T) {
	movies := clusterPageInfos(corpus.GenerateMovies(corpus.DefaultMovieProfile(27, 2)))
	r := cluster.NewRouter(0)
	r.Register("hollow", cluster.NewSignature())
	route, ok := r.RoutePage(movies[0])
	if ok {
		t.Fatalf("empty signature claimed the page: %+v", route)
	}
	if route.Score != 0 {
		t.Errorf("empty signature score = %f, want 0", route.Score)
	}
	// A real signature alongside the hollow one still wins.
	r.Register("movies", cluster.SignatureOf(movies[:1]))
	if route, ok = r.RoutePage(movies[1]); !ok || route.Name != "movies" {
		t.Errorf("route = %+v ok=%v, want movies", route, ok)
	}
}

// TestRouterTieBreaksDeterministically: two identical signatures tie on
// every score; the alphabetically first name must win, every time, with
// the loser surfaced as the runner-up at the same score.
func TestRouterTieBreaksDeterministically(t *testing.T) {
	movies := clusterPageInfos(corpus.GenerateMovies(corpus.DefaultMovieProfile(28, 12)))
	sig := cluster.SignatureOf(movies[:8])
	r := cluster.NewRouter(0)
	r.Register("zeta", sig)
	r.Register("alpha", sig)
	for i := 0; i < 5; i++ {
		route, ok := r.RoutePage(movies[9])
		if !ok {
			t.Fatalf("tied signatures unrouted: %+v", route)
		}
		if route.Name != "alpha" || route.SecondName != "zeta" {
			t.Fatalf("tie broke to %q over %q, want alpha over zeta", route.Name, route.SecondName)
		}
		if route.Score != route.SecondScore {
			t.Fatalf("identical signatures scored differently: %f vs %f", route.Score, route.SecondScore)
		}
	}
}

// TestRouterObserveAfterFeatureCap: observations keep flowing after the
// signature feature cap is reached — the page count keeps counting, the
// maps stay bounded, and fresh pages still route.
func TestRouterObserveAfterFeatureCap(t *testing.T) {
	if testing.Short() {
		t.Skip("feature-cap churn is slow under -short")
	}
	movies := clusterPageInfos(corpus.GenerateMovies(corpus.DefaultMovieProfile(29, 20)))
	r := cluster.NewRouter(0)
	// Flood the signature with one-off noise keywords well past the cap,
	// interleaved with genuine cluster pages.
	for i := 0; i < 600; i++ {
		f := cluster.Fingerprint(movies[i%len(movies)])
		noisy := make(map[string]struct{}, len(f.Keywords)+10)
		for k := range f.Keywords {
			noisy[k] = struct{}{}
		}
		for j := 0; j < 10; j++ {
			noisy[fmt.Sprintf("noise-%d-%d", i, j)] = struct{}{}
		}
		f.Keywords = noisy
		r.Observe("movies", f)
	}
	if got := r.SignaturePages("movies"); got != 600 {
		t.Errorf("SignaturePages = %d, want 600", got)
	}
	correct := 0
	for _, p := range movies {
		if route, ok := r.RoutePage(p); ok && route.Name == "movies" {
			correct++
		}
	}
	if correct < len(movies)*9/10 {
		t.Errorf("only %d/%d cluster pages route after feature-cap churn", correct, len(movies))
	}
}

// TestRouteLazyURLFastPath pins the URL fast path's external contract via
// the fingerprint thunk: a learned pattern routes correctly while calling
// fp only for the first page and the sampled 1-in-N verifications; any
// signature mutation forgets the learned patterns; unrouted patterns are
// never cached.
func TestRouteLazyURLFastPath(t *testing.T) {
	movies := clusterPageInfos(corpus.GenerateMovies(corpus.DefaultMovieProfile(11, 20)))
	books := clusterPageInfos(corpus.GenerateBooks(corpus.DefaultBookProfile(12, 20)))
	r := cluster.NewRouter(0)
	r.Register("movies", cluster.SignatureOf(movies[:10]))
	r.Register("books", cluster.SignatureOf(books[:10]))

	fpCalls := 0
	route := func(p cluster.PageInfo) (cluster.Route, bool) {
		return r.RouteLazy(p.URI, func() cluster.Features {
			fpCalls++
			return cluster.Fingerprint(p)
		})
	}

	const n = 50
	for i := 0; i < n; i++ {
		got, ok := route(movies[10+i%10])
		if !ok || got.Name != "movies" {
			t.Fatalf("page %d: routed to %q ok=%v", i, got.Name, ok)
		}
	}
	// One learning miss plus one verification per 16 fast hits; anything
	// near n means the fast path never engaged.
	if fpCalls == 0 || fpCalls > 1+n/8 {
		t.Errorf("fingerprint computed %d times for %d same-pattern pages", fpCalls, n)
	}

	// Books pages carry a different URL pattern: they must not be decided
	// by the movies pattern, and must route correctly from their first page.
	if got, ok := route(books[10]); !ok || got.Name != "books" {
		t.Fatalf("books page routed to %q", got.Name)
	}

	// Any signature mutation forgets learned patterns: the next movies
	// page pays a full fingerprint again.
	before := fpCalls
	r.Observe("movies", cluster.Fingerprint(movies[10]))
	if got, ok := route(movies[11]); !ok || got.Name != "movies" {
		t.Fatalf("post-observe routed to %q", got.Name)
	} else if fpCalls != before+1 {
		t.Errorf("fingerprint not recomputed after signature mutation (calls %d → %d)", before, fpCalls)
	}

	// Unrouted pages are never cached: every attempt fingerprints.
	before = fpCalls
	alien := cluster.PageInfo{URI: "http://other.example/x/1", Doc: movies[0].Doc}
	aw := cluster.Fingerprint(alien)
	aw.Keywords = map[string]struct{}{"zz": {}}
	aw.TagShingles = map[string]struct{}{"zz": {}}
	for i := 0; i < 5; i++ {
		if _, ok := r.RouteLazy(alien.URI, func() cluster.Features { fpCalls++; return aw }); ok {
			t.Fatal("alien page routed")
		}
	}
	if fpCalls != before+5 {
		t.Errorf("unrouted pattern was cached: %d fingerprints for 5 attempts", fpCalls-before)
	}
}

// TestRouteLazyAmbiguousPattern drives two clusters whose pages share one
// URL pattern: once verification observes the conflict the pattern is
// ambiguous and every subsequent page full-routes (fp called every time),
// restoring exact Route behaviour.
func TestRouteLazyAmbiguousPattern(t *testing.T) {
	movies := clusterPageInfos(corpus.GenerateMovies(corpus.DefaultMovieProfile(11, 20)))
	books := clusterPageInfos(corpus.GenerateBooks(corpus.DefaultBookProfile(12, 20)))
	r := cluster.NewRouter(0)
	r.Register("movies", cluster.SignatureOf(movies[:10]))
	r.Register("books", cluster.SignatureOf(books[:10]))

	// Both content shapes arrive under one shared pattern.
	const sharedURI = "http://mixed.example/page/123"
	fpCalls := 0
	route := func(p cluster.PageInfo) (cluster.Route, bool) {
		return r.RouteLazy(sharedURI, func() cluster.Features {
			fpCalls++
			f := cluster.Fingerprint(p)
			f.Host = "mixed.example"
			return f
		})
	}
	route(movies[10]) // learns pattern → movies
	// A run of books pages under the learned pattern is misrouted at most
	// until the next sampled verification, which sees a books fingerprint
	// win and marks the pattern ambiguous.
	for i := 0; i < 32; i++ {
		route(books[10+i%10])
	}
	before := fpCalls
	for i := 0; i < 10; i++ {
		if got, ok := route(books[10+i%10]); !ok || got.Name != "books" {
			t.Fatalf("ambiguous pattern: books page %d routed to %q ok=%v", i, got.Name, ok)
		}
		if got, ok := route(movies[10+i%10]); !ok || got.Name != "movies" {
			t.Fatalf("ambiguous pattern: movies page %d routed to %q ok=%v", i, got.Name, ok)
		}
	}
	if fpCalls != before+20 {
		t.Errorf("ambiguous pattern still fast-routing: %d fingerprints for 20 pages", fpCalls-before)
	}
}

// TestRouteLazyConcurrentRelearn runs RouteLazy from several goroutines
// while the same URL patterns are relearned under them: verifications
// that update a pattern's score, conflicting verifications that flip it
// ambiguous, and signature mutations that clear the table so it is
// learned again. Under -race this pins that the fast path reads a
// learned entry only under the router's lock.
func TestRouteLazyConcurrentRelearn(t *testing.T) {
	movies := clusterPageInfos(corpus.GenerateMovies(corpus.DefaultMovieProfile(11, 16)))
	books := clusterPageInfos(corpus.GenerateBooks(corpus.DefaultBookProfile(12, 16)))
	r := cluster.NewRouter(0)
	r.Register("movies", cluster.SignatureOf(movies[:8]))
	r.Register("books", cluster.SignatureOf(books[:8]))
	// Fingerprints are computed up front: the test races the router, not
	// the fingerprinting.
	var prints []cluster.Features
	for _, p := range append(movies[8:], books[8:]...) {
		f := cluster.Fingerprint(p)
		f.Host = "mixed.example"
		prints = append(prints, f)
	}
	observed := cluster.Fingerprint(movies[0])

	const workers, rounds = 4, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Two shared patterns: consecutive pages alternate content
				// shapes, so verifications both refresh scores and observe
				// conflicts.
				uri := fmt.Sprintf("http://mixed.example/p%d/%d", (w+i)%2, i)
				f := prints[(w*rounds+i)%len(prints)]
				if _, ok := r.RouteLazy(uri, func() cluster.Features { return f }); !ok {
					t.Errorf("worker %d round %d: corpus page unrouted", w, i)
					return
				}
				if w == 0 && i%50 == 0 {
					r.Observe("movies", observed)
				}
			}
		}(w)
	}
	wg.Wait()
}
