package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/extract"
	"repro/internal/induct"
	"repro/internal/lifecycle"
	"repro/internal/pipeline"
	"repro/internal/rule"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/streamx"
)

// layer is one traced layer boundary.
type layer uint8

const (
	lSource layer = iota
	lDecode
	lPageKey
	lRoute
	lFingerprint
	lParse
	lCapture
	lHandoff
	lStream
	lDOM
	lMetrics
	lObserve
	lSink
	lEncode
	lServiceEncode
	numLayers
)

var layerNames = [numLayers]string{
	"pipeline.source", "pipeline.ndjson_decode", "service.pagecache_key",
	"cluster.route", "streamx.fingerprint", "dom.parse", "induct.capture",
	"service.pool_handoff", "extract.stream", "extract.dom",
	"service.metrics", "lifecycle.observe",
	"pipeline.sink", "pipeline.encode", "service.encode",
}

// span is one traced call into a layer. parent indexes the page's span
// that caused it (-1 for none); times are ns since epoch.
type span struct {
	layer      layer
	parent     int8
	start, end int64
}

// maxSpans bounds the spans of one page; the replay records at most 14.
const maxSpans = 16

// pageTrace holds the spans of one page or request. Its stages run on
// different goroutines, but always one after another, ordered by the
// pipeline's channels, so no lock is needed. A nil *pageTrace records
// nothing: that is the untraced replay.
type pageTrace struct {
	n     int8
	spans [maxSpans]span
}

// epoch is the zero of span times.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

func (pt *pageTrace) begin(l layer, parent int) int {
	if pt == nil {
		return -1
	}
	i := int(pt.n)
	pt.n++
	pt.spans[i] = span{layer: l, parent: int8(parent), start: nanotime()}
	return i
}

func (pt *pageTrace) end(i int) {
	if pt != nil {
		pt.spans[i].end = nanotime()
	}
}

// add records a span timed elsewhere (on a pool worker).
func (pt *pageTrace) add(l layer, parent int, start, end int64) int {
	if pt == nil {
		return -1
	}
	i := int(pt.n)
	pt.n++
	pt.spans[i] = span{layer: l, parent: int8(parent), start: start, end: end}
	return i
}

// tracer owns the page traces of one traced pass: seqs [first, first+len).
type tracer struct {
	first int
	pages []pageTrace
}

func (t *tracer) page(seq int) *pageTrace {
	if t == nil || seq < t.first || seq >= t.first+len(t.pages) {
		return nil
	}
	return &t.pages[seq-t.first]
}

// pageOf finds a page's trace from the id the benchmark spliced into its
// URI.
func (t *tracer) pageOf(uri string) *pageTrace {
	if t == nil {
		return nil
	}
	return t.page(uriSeq(uri))
}

// uriSeq recovers a request's sequence number from the id in its URI.
func uriSeq(uri string) int {
	start, end := idSpan(uri)
	if start < 0 {
		return -1
	}
	id, err := strconv.Atoi(uri[start:end])
	if err != nil {
		return -1
	}
	return id - idBase
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (the union of their intervals, clipped to the span).
func selfTimes(spans []span) []int64 {
	out := make([]int64, len(spans))
	type iv struct{ s, e int64 }
	for i, sp := range spans {
		var kids []iv
		for _, c := range spans {
			if int(c.parent) == i {
				s, e := max(c.start, sp.start), min(c.end, sp.end)
				if e > s {
					kids = append(kids, iv{s, e})
				}
			}
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a].s < kids[b].s })
		var covered, reach int64 = 0, sp.start
		for _, k := range kids {
			if k.e <= reach {
				continue
			}
			covered += k.e - max(k.s, reach)
			reach = k.e
		}
		out[i] = sp.end - sp.start - covered
	}
	return out
}

// replay re-runs a workload's generated inputs in-process: the same
// public functions the extractd handlers call, in the same order, on as
// many goroutines as the daemon has workers, with spans recorded around
// each call into a layer.
type replay struct {
	fx   *fixture
	srv  *service.Server
	mons map[string]*lifecycle.Monitor
	// domOnly marks repositories streamx.Compile refused: their pages
	// always take the parse+DOM path.
	domOnly map[string]bool
	trace   string
	tr      *tracer // nil while untraced

	fpCalls, routeCalls atomic.Int64
	failed              atomic.Int64
	rep                 reporter

	// Sink state (the pipeline emits from one goroutine).
	buf bytes.Buffer
	enc *json.Encoder
}

// replayResult is the per-layer picture of one workload.
type replayResult struct {
	self       [numLayers]float64 // µs of self time per page
	fastRatio  float64
	overhead   float64 // untraced pages/s over traced pages/s
	attempted  int
	failed     int
	tracedPass *tracer
}

// runReplay builds a server the way cmd/extractd does for the workload
// (fresh store, induction on, repositories loaded from the same files),
// warms it, then times an untraced and a traced pass.
func runReplay(fx *fixture, rules []string, dataDir string) (*replayResult, error) {
	procs := fx.w.procs
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	srv := service.NewServer(procs, 4*procs, nil)
	srv.RequestTimeout = 30 * time.Second
	srv.AdmissionWait = 2 * time.Second
	srv.RouterLearn = true
	eng := srv.EnableInduction(induct.Config{})
	defer eng.Close()
	st, err := store.Open(store.Options{Dir: dataDir, Fsync: store.FsyncInterval})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if err := srv.AttachStore(st); err != nil {
		return nil, err
	}
	defer srv.Close()
	rp := &replay{fx: fx, srv: srv, mons: map[string]*lifecycle.Monitor{},
		domOnly: map[string]bool{}, trace: strings.Repeat("be", 16)}
	rp.enc = json.NewEncoder(&rp.buf)
	for _, spec := range rules {
		name, path, _ := strings.Cut(spec, "=")
		repo, err := rule.Load(path)
		if err != nil {
			return nil, err
		}
		e, err := srv.LoadRepo(name, repo)
		if err != nil {
			return nil, err
		}
		rp.mons[name] = lifecycle.NewMonitor(srv.Lifecycle)
		// Only a repository without a compiled automaton skips the stream
		// attempt on a fresh lazy page.
		probe := core.NewPageLazy("http://probe/1", "<html><body></body></html>")
		_, _, _, info := e.Proc.ExtractPageValuesInfo(probe)
		rp.domOnly[name] = !info.Attempted
	}

	warm, n := fx.w.warm/2, fx.w.window
	res := &replayResult{}
	if _, err := rp.pass(0, warm); err != nil {
		return nil, err
	}
	plain, err := rp.pass(warm, n)
	if err != nil {
		return nil, err
	}
	rp.fpCalls.Store(0)
	rp.routeCalls.Store(0)
	rp.tr = &tracer{first: warm + n, pages: make([]pageTrace, n)}
	traced, err := rp.pass(warm+n, n)
	if err != nil {
		return nil, err
	}
	res.overhead = traced.Seconds() / plain.Seconds()
	if calls := rp.routeCalls.Load(); calls > 0 {
		res.fastRatio = 1 - float64(rp.fpCalls.Load())/float64(calls)
	}
	for i := range rp.tr.pages {
		pt := &rp.tr.pages[i]
		spans := pt.spans[:pt.n]
		for j, s := range selfTimes(spans) {
			res.self[spans[j].layer] += float64(s) / 1e3
		}
	}
	for l := range res.self {
		res.self[l] /= float64(n)
	}
	res.attempted = warm + 2*n
	res.failed = int(rp.failed.Load())
	res.tracedPass = rp.tr
	return res, nil
}

// pass replays requests [first, first+n) and returns how long they took.
func (rp *replay) pass(first, n int) (time.Duration, error) {
	start := time.Now()
	var err error
	if rp.fx.w.kind == ingestKind {
		err = rp.ingest(first, n)
	} else {
		err = rp.extract(first, n)
	}
	return time.Since(start), err
}

// ingest mirrors one POST /ingest exchange (service.ingest).
func (rp *replay) ingest(first, n int) error {
	src := &replaySource{rp: rp, seq: first,
		sc: bufio.NewScanner(&lineReader{fx: rp.fx, next: first, end: first + n})}
	src.sc.Buffer(make([]byte, 64<<10), 8<<20)
	stats, err := pipeline.Run(context.Background(), pipeline.Config{
		Workers:    rp.srv.Pool.Workers(),
		Classifier: pipeline.ClassifierFunc(rp.classify),
		Extractor:  rp,
		Telemetry:  rp.srv.Metrics.Pipeline,
	}, src, pipeline.FuncSink(rp.emit))
	if err != nil {
		return err
	}
	if stats.Pages != n {
		return fmt.Errorf("replay: %d of %d pages emitted", stats.Pages, n)
	}
	return nil
}

// lineReader produces the NDJSON request body of an ingest pass.
type lineReader struct {
	fx        *fixture
	next, end int
	buf       []byte
	off       int
}

func (r *lineReader) Read(p []byte) (int, error) {
	for r.off == len(r.buf) {
		if r.next == r.end {
			return 0, io.EOF
		}
		r.buf, r.off = appendIngestLine(r.buf[:0], r.fx, r.next), 0
		r.next++
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}

// replaySource mirrors pipeline.NDJSONSource with the service's
// page-cache-aware parser hook.
type replaySource struct {
	rp  *replay
	sc  *bufio.Scanner
	seq int
}

func (s *replaySource) Next(ctx context.Context) (*core.Page, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pt := s.rp.tr.page(s.seq)
	sp := pt.begin(lSource, -1)
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	raw := strings.TrimSpace(s.sc.Text())
	d := pt.begin(lDecode, sp)
	var in pipeline.PageLine
	err := json.Unmarshal([]byte(raw), &in)
	pt.end(d)
	if err != nil {
		return nil, &pipeline.PageError{Line: s.seq + 1, Err: err}
	}
	k := pt.begin(lPageKey, sp)
	page := s.rp.pageFor(in.URI, []byte(in.HTML), in.HTML)
	pt.end(k)
	pt.end(sp)
	s.seq++
	return page, nil
}

// pageFor mirrors service.pageForKey: hash the body, probe the page
// cache, and otherwise hand out a lazy page that admits its tree to the
// cache if anything parses it.
func (rp *replay) pageFor(uri string, body []byte, html string) *core.Page {
	key := service.PageKeyOf(body)
	if doc, ok := rp.srv.PageCache.Get(key); ok {
		rp.srv.Metrics.PageCache(true)
		return &core.Page{URI: uri, Doc: doc}
	}
	rp.srv.Metrics.PageCache(false)
	page := core.NewPageLazy(uri, html)
	cache := rp.srv.PageCache
	page.SetOnParse(func(doc *dom.Node) { cache.Put(key, doc, int64(len(body))) })
	return page
}

// unroutedError mirrors the service's unrouted page error.
type unroutedError struct{ msg string }

func (e *unroutedError) Error() string { return e.msg }
func (e *unroutedError) Unwrap() error { return pipeline.ErrUnrouted }

// classify mirrors service.routePage.
func (rp *replay) classify(p *core.Page) (string, float64, error) {
	pt := rp.tr.pageOf(p.URI)
	r := pt.begin(lRoute, -1)
	route, ok := rp.srv.Router.RouteLazy(p.URI, func() cluster.Features {
		rp.fpCalls.Add(1)
		f := pt.begin(lFingerprint, r)
		feats := streamx.FingerprintPage(p)
		pt.end(f)
		return feats
	})
	pt.end(r)
	rp.routeCalls.Add(1)
	if !ok {
		rp.srv.Metrics.Router(service.RouterUnrouted)
		// The capture parses the page; parse it first so the two layers
		// are timed apart.
		ps := pt.begin(lParse, -1)
		p.Document()
		pt.end(ps)
		c := pt.begin(lCapture, -1)
		rp.srv.Induct.CaptureTraced(p, rp.trace)
		pt.end(c)
		return "", route.Score, &unroutedError{unroutedMessage(p.URI, route)}
	}
	e, loaded := rp.srv.Registry.Get(route.Name)
	if !loaded {
		return "", 0, fmt.Errorf("replay: routed to unloaded repository %q", route.Name)
	}
	rp.srv.Metrics.Router(service.RouterHit)
	return e.Name, route.Score, nil
}

// Extract mirrors the service's pipeline extractor: per-page deadline,
// then extractEntry.
func (rp *replay) Extract(ctx context.Context, repo string, page *core.Page) (*extract.Element, map[string][]string, []extract.Failure, error) {
	e, ok := rp.srv.Registry.Get(repo)
	if !ok {
		return nil, nil, nil, fmt.Errorf("replay: repository %q not loaded", repo)
	}
	ctx, cancel := context.WithTimeout(ctx, rp.srv.RequestTimeout)
	defer cancel()
	return rp.extractEntry(ctx, e, page, rp.tr.pageOf(page.URI))
}

// extractEntry mirrors service.extractEntry: the extraction runs on the
// worker pool, then metrics, per-version stats and the drift monitor.
func (rp *replay) extractEntry(ctx context.Context, e *service.RepoEntry, page *core.Page, pt *pageTrace) (*extract.Element, map[string][]string, []extract.Failure, error) {
	var (
		el                     *extract.Element
		values                 map[string][]string
		fails                  []extract.Failure
		info                   extract.StreamInfo
		ts, te, parse0, parse1 int64
	)
	parseFirst := rp.domOnly[e.Name] && page.Doc == nil
	start := time.Now()
	h := pt.begin(lHandoff, -1)
	err := rp.srv.Pool.DoWait(ctx, rp.srv.AdmissionWait, func() {
		if pt != nil {
			ts = nanotime()
		}
		if parseFirst {
			// The DOM path would parse inside ExtractPageValuesInfo;
			// parse first so dom.parse and extract.dom are timed apart.
			if pt != nil {
				parse0 = nanotime()
			}
			page.Document()
			if pt != nil {
				parse1 = nanotime()
			}
		}
		el, values, fails, info = e.Proc.ExtractPageValuesInfo(page)
		if pt != nil {
			te = nanotime()
		}
	})
	pt.end(h)
	if err != nil {
		if errors.Is(err, service.ErrSaturated) {
			rp.srv.Metrics.Shed()
		}
		return nil, nil, nil, err
	}
	task := lDOM
	if info.Hit {
		task = lStream
	}
	t := pt.add(task, h, ts, te)
	if parseFirst {
		pt.add(lParse, t, parse0, parse1)
	}
	m := pt.begin(lMetrics, -1)
	rp.srv.Metrics.Extraction(time.Since(start), fails)
	rp.srv.Metrics.StreamExtract(info.Hit, info.Reason)
	e.Stats.Record(len(fails))
	pt.end(m)
	o := pt.begin(lObserve, -1)
	_, justTripped := rp.mons[e.Name].Observe(page, values, fails)
	pt.end(o)
	if justTripped {
		rp.srv.Metrics.Lifecycle("drift.alarm")
	}
	return el, values, fails, nil
}

// emit mirrors the /ingest sink: render the result line and encode it.
func (rp *replay) emit(it *pipeline.Item) error {
	pt := rp.tr.pageOf(it.Page.URI)
	s := pt.begin(lSink, -1)
	en := pt.begin(lEncode, s)
	line := pipeline.MakeResultLine(it)
	line.Trace = rp.trace
	rp.buf.Reset()
	err := rp.enc.Encode(line)
	pt.end(en)
	pt.end(s)
	if err != nil {
		return err
	}
	seq := uriSeq(it.Page.URI)
	p := rp.fx.ingestPage(seq)
	if !p.expect.match(rp.buf.Bytes(), p.uriPre, p.uriSuf, int64(idBase+seq)) {
		rp.failed.Add(1)
		rp.rep.report("replay line %d: %.300s", seq, rp.buf.Bytes())
	}
	return nil
}

// extract mirrors POST /extract (service.handleExtract) from a closed
// loop of as many clients as the daemon has workers.
func (rp *replay) extract(first, n int) error {
	var next atomic.Int64
	next.Store(int64(first))
	var wg sync.WaitGroup
	errs := make(chan error, rp.fx.w.procs)
	for k := 0; k < rp.fx.w.procs; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			bodies := map[*poolPage][]byte{}
			for {
				i := int(next.Add(1) - 1)
				if i >= first+n {
					return
				}
				t := rp.fx.tpls[rp.fx.reqs[i%len(rp.fx.reqs)]]
				body, ok := bodies[t.page]
				if !ok {
					body = []byte(t.page.html)
					bodies[t.page] = body
				}
				uri := t.page.uriPre + strconv.Itoa(idBase+i) + t.page.uriSuf
				if err := rp.extractOne(t, uri, body, i, &buf, enc); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func (rp *replay) extractOne(t *extractTpl, uri string, body []byte, i int, buf *bytes.Buffer, enc *json.Encoder) error {
	pt := rp.tr.page(i)
	k := pt.begin(lPageKey, -1)
	page := rp.pageFor(uri, body, string(body))
	pt.end(k)
	var e *service.RepoEntry
	if t.repoParam != "" {
		var ok bool
		if e, ok = rp.srv.Registry.Get(t.repoParam); !ok {
			return fmt.Errorf("replay: repository %q not loaded", t.repoParam)
		}
	} else {
		name, _, err := rp.classify(page)
		if err != nil {
			return err
		}
		e, _ = rp.srv.Registry.Get(name)
	}
	el, _, fails, err := rp.extractEntry(context.Background(), e, page, pt)
	if err != nil {
		return err
	}
	// learnRoute: signatures built from the whole pool are past the
	// service's learning cap, so this is the cap check alone.
	if t.repoParam != "" && len(fails) == 0 && rp.srv.RouterLearn {
		if rp.srv.Router.SignaturePages(e.Name) < 200 {
			rp.srv.Router.Observe(e.Name, streamx.FingerprintPage(page))
		}
	}
	en := pt.begin(lServiceEncode, -1)
	buf.Reset()
	err = enc.Encode(extractResult{
		URI: page.URI, Repo: e.Name, Generation: e.Generation,
		Record: el.JSONValue(), Failures: failureStrings(fails),
	})
	pt.end(en)
	if err != nil {
		return err
	}
	if !t.expect.match(buf.Bytes(), t.page.uriPre, t.page.uriSuf, int64(idBase+i)) {
		rp.failed.Add(1)
		rp.rep.report("replay request %d: %.300s", i, buf.Bytes())
	}
	return nil
}

// writeTrace saves a traced pass as JSON: one row per span.
func writeTrace(path string, fx *fixture, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"unit":"ns",`+
		`"columns":["page","span","parent","layer","start","end"],"spans":[`, fx.w.name, fx.seed)
	sep := ""
	for i := range tr.pages {
		pt := &tr.pages[i]
		for j, s := range pt.spans[:pt.n] {
			fmt.Fprintf(w, "%s\n[%d,%d,%d,%q,%d,%d]", sep, tr.first+i, j, s.parent, layerNames[s.layer], s.start, s.end)
			sep = ","
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
