// Allocation-regression tests: the PR 3 hot-path overhaul is protected by
// explicit allocs-per-op budgets, so a future change that quietly
// reintroduces per-step maps or materialized axis slices fails tests, not
// just drifts a benchmark number.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/extract"
	"repro/internal/rule"
	"repro/internal/streamx"
	"repro/internal/xpath"
)

// TestExtractPageAllocBudget extracts one page of the Figure 1 movies
// corpus with a fully induced repository and pins the allocation budget.
// The pre-PR3 evaluator spent ~6500 allocs/op here; the budget sits ~2×
// above the current ~600 so legitimate feature work has headroom while a
// regression to the old regime still fails loudly.
func TestExtractPageAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus induction is slow")
	}
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(9, 30))
	sample, _ := cl.RepresentativeSplit(10)
	builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
		t.Fatal(err)
	}
	proc, err := extract.NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}
	page := cl.Pages[len(cl.Pages)-1]
	// Warm the evaluator's scratch pool before measuring.
	for i := 0; i < 3; i++ {
		proc.ExtractPage(page)
	}
	allocs := testing.AllocsPerRun(50, func() {
		el, _ := proc.ExtractPage(page)
		if len(el.Children) == 0 {
			t.Error("empty extraction")
		}
	})
	const budget = 1300
	if allocs > budget {
		t.Errorf("ExtractPage allocates %.0f/op, budget %d", allocs, budget)
	}
}

// TestStreamAutomatonZeroAllocs pins the PR 9 steady-state guarantee: a
// warmed Scratch executes the whole compiled repository over a real
// corpus page with 0 allocs/op — captures land in the scratch arena,
// element buffers recycle through the free list, and tag lookups never
// materialize byte-slice keys.
func TestStreamAutomatonZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus induction is slow")
	}
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(9, 30))
	sample, _ := cl.RepresentativeSplit(10)
	builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
		t.Fatal(err)
	}
	ordered := make([]*rule.Compiled, 0, len(repo.Rules))
	for _, r := range repo.Rules {
		c, err := r.Compile()
		if err != nil {
			t.Fatal(err)
		}
		ordered = append(ordered, c)
	}
	prog, reason := streamx.Compile(ordered)
	if prog == nil {
		t.Fatalf("induced repository not stream-eligible: %s", reason)
	}
	html := dom.Render(cl.Pages[len(cl.Pages)-1].Doc)
	sc := prog.NewScratch()
	// Warm the scratch: first runs size the arena, state and counter
	// slices to the page's shape.
	for i := 0; i < 3; i++ {
		if err := prog.Run(sc, html); err != nil {
			t.Fatal(err)
		}
	}
	if prog.NumRules() == 0 || sc.RuleMatches(0) == 0 {
		t.Fatal("automaton extracted nothing")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := prog.Run(sc, html); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed automaton allocates %.1f/op, want 0", allocs)
	}
}

// TestExtractPageStreamAllocBudget pins the end-to-end streaming entry
// point — lazy page construction, pooled scratch, automaton execution,
// value refinement and XML assembly — against an allocation budget. The
// DOM path spends ~600 allocs/op on this page; the stream path's whole
// extraction must stay an order of magnitude under that (~40 observed,
// budget ~3.5× for headroom).
func TestExtractPageStreamAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus induction is slow")
	}
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(9, 30))
	sample, _ := cl.RepresentativeSplit(10)
	builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
		t.Fatal(err)
	}
	proc, err := extract.NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}
	html := dom.Render(cl.Pages[len(cl.Pages)-1].Doc)
	for i := 0; i < 3; i++ {
		if _, _, info := proc.ExtractPageStream("http://x/p", html); !info.Hit {
			t.Fatalf("stream path not taken: %s", info.Reason)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		el, _, info := proc.ExtractPageStream("http://x/p", html)
		if !info.Hit || len(el.Children) == 0 {
			t.Error("stream extraction missed")
		}
	})
	const budget = 150
	if allocs > budget {
		t.Errorf("ExtractPageStream allocates %.0f/op, budget %d", allocs, budget)
	}
}

// TestFastPathLocationZeroAllocsOnCorpusPage asserts the tentpole's
// zero-allocation guarantee against a real corpus page rather than a toy
// document: the canonical positional location of a corpus text node
// evaluates with 0 allocs/op.
func TestFastPathLocationZeroAllocsOnCorpusPage(t *testing.T) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(3, 2))
	page := cl.Pages[0]
	title := xpath.MustCompile("BODY[1]/H1[1]/text()[1]")
	if !title.IsFastPath() {
		t.Fatal("canonical location must compile to the fast path")
	}
	if title.SelectLocationFirst(page.Doc) == nil {
		t.Fatal("title location found nothing")
	}
	allocs := testing.AllocsPerRun(200, func() {
		title.SelectLocationFirst(page.Doc)
	})
	if allocs != 0 {
		t.Errorf("fast-path SelectLocationFirst allocates %.1f/op, want 0", allocs)
	}
}

// TestParseAllocBudget pins dom.Parse over benchHTML (a rendered movies
// page). 96 allocs/op is what the parser spent before tree construction
// became a sink of the shared walk; the shared walk must not spend more.
func TestParseAllocBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(50, func() {
		if dom.Parse(benchHTML) == nil {
			t.Error("nil document")
		}
	})
	const budget = 96
	if allocs > budget {
		t.Errorf("Parse allocates %.0f/op, budget %d", allocs, budget)
	}
}

// raceDetector is set in builds with the race detector (race_test.go).
var raceDetector bool

// TestFingerprintAllocBudget pins streamx.Fingerprint over benchHTML: the
// walk state is recycled as Parse's is, so what allocates is the
// features themselves (the tag-path set, the keyword set and its text):
// 78 allocs/op, where a fresh walk state per call spent 98.
func TestFingerprintAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops recycled walk state at random under the race detector")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if f := streamx.Fingerprint("http://www.imdb.com/title/tt0000001/", benchHTML); len(f.TagShingles) == 0 {
			t.Error("no tag paths")
		}
	})
	const budget = 80
	if allocs > budget {
		t.Errorf("Fingerprint allocates %.1f/op, budget %d", allocs, budget)
	}
}
