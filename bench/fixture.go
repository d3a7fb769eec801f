package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"path/filepath"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/extract"
	"repro/internal/pipeline"
	"repro/internal/rule"
	"repro/internal/streamx"
)

const (
	// poolSize is the number of generated pages per cluster. Above 1000,
	// so a movies+books ingest cycle repeats a body only after 2047
	// others and the daemon's 256-entry page cache never hits, as in a
	// real migration.
	poolSize = 1024
	// idBase offsets the per-request ids spliced into page URIs.
	idBase = 1000000
	// Working set of extract-single: its bodies repeat, so the page
	// cache can hold all of them.
	wsMovies, wsBooks, wsForum = 24, 24, 16
	// driftShare of the books pages in ingest-mixed lose their mandatory
	// price. (A relabel fault would leave books' positional rules
	// intact, so it would never reach the failure path.)
	driftShare = 0.1
)

// poolPage is one generated page as the daemon receives it, with its
// reference output.
type poolPage struct {
	cluster        string // movies, books, stocks or forum
	uri            string // the generated URI
	uriPre, uriSuf string // uri around its numeric id
	html           string
	repo           string // expected repository; "" for an unrouted page
	record         any
	failures       []string
	// linePre and lineSuf frame the request's id in its NDJSON line.
	linePre, lineSuf []byte
	// expect is the reference /ingest result line.
	expect expectation
}

// extractTpl is one kind of /extract request: a working-set page posted
// with or without an explicit repository.
type extractTpl struct {
	page           *poolPage
	repoParam      string // "" lets the router pick
	reqPre, reqSuf []byte // the raw HTTP request around the id
	expect         expectation
}

type namedRepo struct {
	name string
	repo *rule.Repository
}

// fixture is everything a workload sends and expects, generated from
// the seed alone.
type fixture struct {
	w     workload
	seed  int64
	repos []namedRepo
	pages []*poolPage
	// cycle is one period of the ingest page order (indices into pages).
	cycle []int32
	// tpls and reqs are the extract-single request sequence: request i
	// uses tpls[reqs[i]].
	tpls []*extractTpl
	reqs []int32
}

// ingestPage returns the page sent as the seq-th line of an ingest round.
func (f *fixture) ingestPage(seq int) *poolPage {
	return f.pages[f.cycle[seq%len(f.cycle)]]
}

// newFixture generates the corpus, induces the repositories and
// precomputes every reference output for workload w. pool is the number
// of pages per cluster (poolSize outside tests).
func newFixture(w workload, seed int64, pool int) (*fixture, error) {
	fx := &fixture{w: w, seed: seed}
	sub := func(k int64) int64 { return seed*16 + k }

	movies := corpus.GenerateMovies(corpus.DefaultMovieProfile(sub(1), pool))
	books := corpus.GenerateBooks(corpus.DefaultBookProfile(sub(2), pool))
	clusters := []*corpus.Cluster{movies, books}
	names := []string{"movies", "books"}
	var forum *corpus.Cluster
	if w.kind == extractKind {
		forum = corpus.GenerateForum(corpus.DefaultForumProfile(sub(4), pool))
		clusters = append(clusters, forum)
		names = append(names, "forum-dom")
	}
	router := cluster.NewRouter(0)
	procs := map[string]*extract.Processor{}
	for i, cl := range clusters {
		repo, err := induceRepo(cl)
		if err != nil {
			return nil, err
		}
		if names[i] == "forum-dom" {
			if err := forceDOM(repo, forum); err != nil {
				return nil, err
			}
		}
		proc, err := extract.NewProcessor(repo)
		if err != nil {
			return nil, err
		}
		procs[names[i]] = proc
		router.Register(names[i], repo.Signature)
		fx.repos = append(fx.repos, namedRepo{names[i], repo})
	}

	add := func(clusterName string, p *core.Page, repo string) error {
		pp, err := newPoolPage(clusterName, p, repo, router, procs[repo])
		if err != nil {
			return err
		}
		fx.pages = append(fx.pages, pp)
		return nil
	}
	rng := rand.New(rand.NewSource(sub(6)))

	if w.kind == ingestKind {
		for _, p := range movies.Pages {
			if err := add("movies", p, "movies"); err != nil {
				return nil, err
			}
		}
		bookPages := books.Pages
		if w.mixed {
			bookPages, _ = corpus.InjectDrift(books, "price", corpus.DriftRemoveMandatory, driftShare, sub(5))
		}
		for _, p := range bookPages {
			if err := add("books", p, "books"); err != nil {
				return nil, err
			}
		}
		if w.mixed {
			stocks := corpus.GenerateStocks(corpus.DefaultStockProfile(sub(3), pool))
			for _, p := range stocks.Pages {
				if err := add("stocks", p, ""); err != nil {
					return nil, err
				}
			}
		}
		fx.cycle = make([]int32, len(fx.pages))
		for i, j := range rng.Perm(len(fx.pages)) {
			fx.cycle[i] = int32(j)
		}
		return fx, nil
	}

	// extract-single: a 64-page working set; 40% of requests let the
	// router pick, 40% name movies or books, 20% name forum-dom.
	for _, p := range movies.Pages[:wsMovies] {
		if err := add("movies", p, "movies"); err != nil {
			return nil, err
		}
	}
	for _, p := range books.Pages[:wsBooks] {
		if err := add("books", p, "books"); err != nil {
			return nil, err
		}
	}
	for _, p := range forum.Pages[:wsForum] {
		if err := add("forum", p, "forum-dom"); err != nil {
			return nil, err
		}
	}
	routable := wsMovies + wsBooks
	for i, pp := range fx.pages {
		if i < routable {
			fx.tpls = append(fx.tpls, newExtractTpl(pp, ""), newExtractTpl(pp, pp.repo))
		} else {
			fx.tpls = append(fx.tpls, newExtractTpl(pp, pp.repo))
		}
	}
	fx.reqs = make([]int32, w.total())
	for i := range fx.reqs {
		x := rng.Float64()
		switch {
		case x < 0.4:
			fx.reqs[i] = int32(2 * rng.Intn(routable))
		case x < 0.8:
			fx.reqs[i] = int32(2*rng.Intn(routable) + 1)
		default:
			fx.reqs[i] = int32(2*routable + rng.Intn(wsForum))
		}
	}
	return fx, nil
}

// induceRepo builds a cluster's repository the way retrozilla does: rules
// induced by core.Builder from a representative sample of 10 pages, the
// routing signature from every page of the pool.
func induceRepo(cl *corpus.Cluster) (*rule.Repository, error) {
	sample, _ := cl.RepresentativeSplit(10)
	builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	res, err := builder.BuildAll(repo, cl.ComponentNames())
	if err != nil {
		return nil, err
	}
	for comp, r := range res {
		if !r.OK {
			return nil, fmt.Errorf("fixture: %s rule for %q did not converge", cl.Name, comp)
		}
	}
	infos := make([]cluster.PageInfo, len(cl.Pages))
	for i, p := range cl.Pages {
		infos[i] = cluster.PageInfo{URI: p.URI, Doc: p.Doc}
	}
	repo.Signature = cluster.SignatureOf(infos)
	return repo, nil
}

// forceDOM rewrites the thread-title location into an unpositioned step
// that selects the same node, which streamx.Compile refuses with
// general-xpath: every forum-dom extraction takes the parse+DOM path.
func forceDOM(repo *rule.Repository, forum *corpus.Cluster) error {
	for i := range repo.Rules {
		if repo.Rules[i].Name == "thread-title" {
			repo.Rules[i].Locations = []string{"//H2/text()"}
		}
	}
	proc, err := extract.NewProcessor(repo)
	if err != nil {
		return err
	}
	_, _, info := proc.ExtractPageStream(forum.Pages[0].URI, dom.Render(forum.Pages[0].Doc))
	if info.Reason != "general-xpath" {
		return fmt.Errorf("fixture: forum-dom streams (%+v), want a general-xpath fallback", info)
	}
	return nil
}

// newPoolPage renders one page and precomputes its reference: the
// routing decision of a full signature match, and the DOM extraction of
// the served markup.
func newPoolPage(clusterName string, p *core.Page, repo string, router *cluster.Router, proc *extract.Processor) (*poolPage, error) {
	html := dom.Render(p.Doc)
	pre, suf, err := splitID(p.URI)
	if err != nil {
		return nil, err
	}
	route, ok := router.Route(streamx.Fingerprint(p.URI, html))
	if ok != (repo != "") || ok && route.Name != repo {
		return nil, fmt.Errorf("fixture: page %s routes to %q (%.2f, ok=%v), want %q", p.URI, route.Name, route.Score, ok, repo)
	}
	pp := &poolPage{cluster: clusterName, uri: p.URI, uriPre: pre, uriSuf: suf, html: html, repo: repo}
	line, err := json.Marshal(pipeline.PageLine{URI: uriMarker, HTML: html})
	if err != nil {
		return nil, err
	}
	at := len(`{"uri":"`)
	pp.linePre = append([]byte(`{"uri":"`), pre...)
	pp.lineSuf = append(append([]byte(suf), line[at+len(uriMarker):]...), '\n')

	result := pipeline.ResultLine{URI: uriMarker, Trace: traceMarker}
	if repo == "" {
		result.Error = unroutedMessage(uriMarker, route)
	} else {
		el, fails := proc.ExtractPage(core.NewPage(uriMarker, html))
		pp.record, pp.failures = el.JSONValue(), failureStrings(fails)
		result.Repo, result.Score = repo, scoreValue
		result.Record, result.Failures = pp.record, pp.failures
	}
	pp.expect = compileExpectation(encodeJSON(result, false))
	return pp, nil
}

// newExtractTpl pre-encodes the raw POST /extract request for a page and
// its reference response body.
func newExtractTpl(pp *poolPage, repoParam string) *extractTpl {
	t := &extractTpl{page: pp, repoParam: repoParam}
	t.reqPre = []byte("POST /extract?uri=" + url.QueryEscape(pp.uriPre))
	tail := url.QueryEscape(pp.uriSuf)
	if repoParam != "" {
		tail += "&repo=" + url.QueryEscape(repoParam)
	}
	tail += " HTTP/1.1\r\nHost: bench\r\nContent-Type: text/html\r\nContent-Length: " +
		strconv.Itoa(len(pp.html)) + "\r\n\r\n" + pp.html
	t.reqSuf = []byte(tail)
	t.expect = compileExpectation(encodeJSON(extractResult{
		URI: uriMarker, Repo: pp.repo, Generation: 1,
		Record: pp.record, Failures: pp.failures,
	}, true))
	return t
}

// splitID cuts a URI around its last run of digits, the page id. Any
// id spliced back in leaves the digit-collapsed URL pattern the router
// keys on unchanged.
func splitID(uri string) (pre, suf string, err error) {
	start, end := idSpan(uri)
	if start < 0 {
		return "", "", fmt.Errorf("fixture: URI %q has no numeric id", uri)
	}
	pre, suf = uri[:start], uri[end:]
	// The markers rely on URIs that no encoding layer rewrites.
	for _, s := range []string{pre, suf} {
		q, _ := json.Marshal(s)
		if string(q) != `"`+s+`"` || strconv.Quote(s) != `"`+s+`"` {
			return "", "", fmt.Errorf("fixture: URI %q needs escaping", uri)
		}
	}
	return pre, suf, nil
}

// idSpan returns the bounds of the last run of digits in uri, or -1s.
func idSpan(uri string) (start, end int) {
	end = len(uri)
	for end > 0 && (uri[end-1] < '0' || uri[end-1] > '9') {
		end--
	}
	if end == 0 {
		return -1, -1
	}
	start = end
	for start > 0 && uri[start-1] >= '0' && uri[start-1] <= '9' {
		start--
	}
	return start, end
}

// writeRepos saves the workload's repositories as retrozilla JSON files
// in dir and returns the matching -rules flags.
func (f *fixture) writeRepos(dir string) ([]string, error) {
	var specs []string
	for _, r := range f.repos {
		path := filepath.Join(dir, r.name+".json")
		if err := r.repo.Save(path); err != nil {
			return nil, err
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return nil, err
		}
		specs = append(specs, r.name+"="+abs)
	}
	return specs, nil
}
