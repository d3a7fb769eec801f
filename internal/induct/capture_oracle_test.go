package induct

import (
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/streamx"
)

// The parse-based capture path, kept as a test oracle: the buffer used to
// parse every unrouted page and fingerprint the tree. The tree-free path
// must leave the buffer in the state this path produces on any page
// stream.

// captureSize is what the buffer charges a page against its byte cap:
// the length of the markup it retains.
func captureSize(p *core.Page) int64 { return int64(len(pageMarkup(p))) }

// parseCapture is the oracle capture: parse, fingerprint the tree, retain
// and journal the page's markup.
func parseCapture(b *UnroutedBuffer, p *core.Page, trace string) (string, bool) {
	doc := p.Document()
	if doc == nil {
		return "", false
	}
	f := cluster.Fingerprint(cluster.PageInfo{URI: p.URI, Doc: doc})
	return b.addMarkup(p.URI, pageMarkup(p), f, trace)
}

// streamCapture is the serving path: one token pass over the raw source
// (the router's fingerprint closure), then the markup entry point.
func streamCapture(e *Engine, uri, src, trace string) bool {
	p := core.NewPageLazy(uri, src)
	return e.CaptureFingerprinted(p, streamx.FingerprintPage(p), trace)
}

// capView is one retained capture, with its markup reduced to the
// rendered tree: raw source and its rendered tree parse to the same
// document.
type capView struct {
	URI  string
	Tree string
	Size int64
	Seq  int64
}

type bucketView struct {
	ID, Sig, JobID, Trace string
	Streak                int
	LastSeq, Bytes        int64
	Caps                  []capView
}

type bufferView struct {
	Buckets                      []bucketView
	Seq, Evicted, Dropped, Bytes int64
	NextID                       int
}

// viewOf captures a buffer's observable state. Unsized views zero every
// byte figure, for comparing buffers whose captures hold different
// markup of the same trees.
func viewOf(t *testing.T, b *UnroutedBuffer, sized bool) bufferView {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	v := bufferView{Seq: b.seq, Evicted: b.evicted, Dropped: b.dropped, Bytes: b.bytes, NextID: b.nextID}
	for _, id := range b.order {
		bk := b.buckets[id]
		sig, err := json.Marshal(bk.sig)
		if err != nil {
			t.Fatal(err)
		}
		bv := bucketView{ID: bk.id, Sig: string(sig), JobID: bk.jobID, Trace: bk.trace,
			Streak: bk.streak, LastSeq: bk.lastSeq, Bytes: bk.bytes}
		for _, c := range bk.caps {
			cv := capView{URI: c.URI, Tree: dom.Render(dom.Parse(c.HTML)), Size: c.Size, Seq: c.seq}
			if !sized {
				cv.Size = 0
			}
			bv.Caps = append(bv.Caps, cv)
		}
		if !sized {
			bv.Bytes = 0
		}
		v.Buckets = append(v.Buckets, bv)
	}
	if !sized {
		v.Bytes = 0
	}
	return v
}

func assertSameBuffer(t *testing.T, what string, got, want *UnroutedBuffer, sized bool) {
	t.Helper()
	g, w := viewOf(t, got, sized), viewOf(t, want, sized)
	if reflect.DeepEqual(g, w) {
		return
	}
	if len(g.Buckets) != len(w.Buckets) {
		t.Fatalf("%s: %d buckets, oracle %d", what, len(g.Buckets), len(w.Buckets))
	}
	for i := range g.Buckets {
		if !reflect.DeepEqual(g.Buckets[i], w.Buckets[i]) {
			gb, wb := g.Buckets[i], w.Buckets[i]
			gb.Caps, wb.Caps = nil, nil
			t.Fatalf("%s: bucket %d differs:\n got %+v (%d caps)\nwant %+v (%d caps)",
				what, i, gb, len(g.Buckets[i].Caps), wb, len(w.Buckets[i].Caps))
		}
	}
	g.Buckets, w.Buckets = nil, nil
	t.Fatalf("%s: buffer totals differ:\n got %+v\nwant %+v", what, g, w)
}

var tagName = regexp.MustCompile(`<(/?)([A-Z][A-Z0-9]*)`)

// sloppy turns a rendered page into hand-written-looking source —
// lower-case tags and a leading comment — so the retained raw source
// really differs from the oracle's rendered tree.
func sloppy(html string) string {
	return "<!-- served -->" + tagName.ReplaceAllStringFunc(html, strings.ToLower)
}

// capturePage is one unrouted page as it arrives: URI and raw source.
type capturePage struct{ uri, src string }

// captureStream is the mixed unrouted traffic of a drifting site: stock
// pages no repository covers, book pages whose mandatory price vanished,
// re-posted URIs, and hand-written pages.
func captureStream() []capturePage {
	stocks := corpus.GenerateStocks(corpus.DefaultStockProfile(61, 24))
	books := corpus.GenerateBooks(corpus.DefaultBookProfile(62, 16))
	movies := corpus.GenerateMovies(corpus.DefaultMovieProfile(63, 6))
	drifted, _ := corpus.InjectDrift(books, "price", corpus.DriftRemoveMandatory, 1, 64)
	var out []capturePage
	for i := 0; i < 24; i++ {
		p := stocks.Pages[i]
		src := dom.Render(p.Doc)
		if i%2 == 1 {
			src = sloppy(src)
		}
		out = append(out, capturePage{p.URI, src})
		if i < len(drifted) {
			out = append(out, capturePage{drifted[i].URI, sloppy(dom.Render(drifted[i].Doc))})
		}
		if i%5 == 4 {
			// A client retry re-posting an earlier page.
			out = append(out, out[len(out)-4])
		}
		if i < len(movies.Pages) && i%2 == 0 {
			out = append(out, capturePage{movies.Pages[i].URI, dom.Render(movies.Pages[i].Doc)})
		}
	}
	out = append(out,
		capturePage{"http://odd.example/a/1", `<html lang=en><body class=x><P title="a&amp;b">one<p>two<!-- c --></body>`},
		capturePage{"http://odd.example/a/2", `<!doctype html><BODY CLASS=y><p id=1 id=2>three<table><tr><td>4</table>`},
	)
	return out
}

// TestCaptureMatchesParseOracle feeds the same page stream through the
// tree-free capture and the parse-based oracle, under byte-cap and
// bucket-cap pressure, and requires identical buffers and journals:
// bucket ids, founding order, signatures, streaks, URIs, sizes, seqs,
// eviction counts. Replaying the journal or restoring a snapshot
// rebuilds the same buffer.
func TestCaptureMatchesParseOracle(t *testing.T) {
	stream := captureStream()
	cfg := Config{MaxBytes: 96 << 10, MaxBuckets: 3}

	type record struct{ uri, html, trace string }
	eng := NewEngine(cfg, &memStager{})
	defer eng.Close()
	var liveLog []record
	eng.SetJournal(Journal{Capture: func(uri, html, trace string) {
		liveLog = append(liveLog, record{uri, html, trace})
	}})
	oracle := NewUnroutedBuffer(cfg)
	var oracleLog []record
	oracle.journal = func(uri, html, trace string) {
		oracleLog = append(oracleLog, record{uri, html, trace})
	}

	for i, cp := range stream {
		trace := fmt.Sprintf("t%02d", i)
		got := streamCapture(eng, cp.uri, cp.src, trace)
		_, want := parseCapture(oracle, core.NewPageLazy(cp.uri, cp.src), trace)
		if got != want {
			t.Fatalf("page %d (%s): retained %v, oracle %v", i, cp.uri, got, want)
		}
	}
	assertSameBuffer(t, "live", eng.Buffer(), oracle, true)
	if v := viewOf(t, oracle, true); v.Evicted == 0 || len(v.Buckets) < 2 {
		t.Fatalf("stream too gentle: evicted %d, %d buckets", v.Evicted, len(v.Buckets))
	}
	if !reflect.DeepEqual(liveLog, oracleLog) {
		t.Fatalf("journals differ: %d records, oracle %d", len(liveLog), len(oracleLog))
	}

	replayed := NewEngine(cfg, &memStager{})
	for _, rec := range liveLog {
		replayed.ApplyCapture(rec.uri, rec.html, rec.trace)
	}
	replayed.Close()
	assertSameBuffer(t, "WAL replay", replayed.Buffer(), eng.Buffer(), true)
	restored := NewUnroutedBuffer(cfg)
	restored.restoreState(eng.Buffer().exportState())
	assertSameBuffer(t, "snapshot", restored, eng.Buffer(), true)
}

// TestRenderedRecordsRestore: WAL records and snapshots written before
// captures kept their source hold each page's rendered tree. Both
// restore the buckets the live run built — ids, signatures, streaks,
// URIs, seqs, bucket-cap evictions — charged the rendered markup's
// length. (Under byte-cap pressure that charge can evict differently
// from the run that wrote them, so this stream stays under the byte cap.)
func TestRenderedRecordsRestore(t *testing.T) {
	cfg := Config{MaxBytes: 32 << 20, MaxBuckets: 3}
	eng := NewEngine(cfg, &memStager{})
	defer eng.Close()
	type record struct{ uri, html, trace string }
	var rendered []record
	eng.SetJournal(Journal{Capture: func(uri, html, trace string) {
		rendered = append(rendered, record{uri, dom.Render(dom.Parse(html)), trace})
	}})
	for i, cp := range captureStream() {
		streamCapture(eng, cp.uri, cp.src, fmt.Sprintf("t%02d", i))
	}
	if v := viewOf(t, eng.Buffer(), true); v.Evicted == 0 || v.Bytes > cfg.MaxBytes/4 {
		t.Fatalf("want bucket-cap eviction well under the byte cap, got evicted %d, %d bytes", v.Evicted, v.Bytes)
	}

	replayed := NewEngine(cfg, &memStager{})
	for _, rec := range rendered {
		replayed.ApplyCapture(rec.uri, rec.html, rec.trace)
	}
	replayed.Close()
	assertSameBuffer(t, "rendered WAL", replayed.Buffer(), eng.Buffer(), false)

	st := eng.Buffer().exportState()
	for _, bs := range st.Buckets {
		for i := range bs.Caps {
			bs.Caps[i].HTML = dom.Render(dom.Parse(bs.Caps[i].HTML))
		}
	}
	restored := NewUnroutedBuffer(cfg)
	restored.restoreState(st)
	assertSameBuffer(t, "rendered snapshot", restored, eng.Buffer(), false)
	if got, want := restored.Bytes(), viewOf(t, replayed.Buffer(), true).Bytes; got != want {
		t.Fatalf("rendered snapshot charged %d bytes, rendered WAL %d", got, want)
	}
}

// TestCaptureLeavesLazyPageUnparsed: capturing an unrouted lazy page
// with features the caller computed keeps it tree-free — the page is
// never parsed, and the buffer retains (and charges) its raw source.
func TestCaptureLeavesLazyPageUnparsed(t *testing.T) {
	eng := NewEngine(Config{}, &memStager{})
	defer eng.Close()
	src := sloppy(dom.Render(quotePage(1, 32).Doc))
	p := core.NewPageLazy("http://quotes.example/q/SYM1/1", src)
	p.SetOnParse(func(*dom.Node) { t.Fatal("capture parsed the page") })
	if !eng.CaptureFingerprinted(p, streamx.FingerprintPage(p), "") {
		t.Fatal("page not captured")
	}
	if p.Doc != nil {
		t.Fatal("capture materialized the tree")
	}
	caps, _, _, _ := eng.Buffer().snapshot("b1")
	if len(caps) != 1 || caps[0].HTML != src || caps[0].Size != int64(len(src)) {
		t.Fatalf("buffer did not retain the raw source: %+v", caps)
	}
}

// TestCaptureSourcelessPageRendersOnce: a page that arrives as a tree
// only (a page-cache hit) is captured as its rendered markup.
func TestCaptureSourcelessPageRendersOnce(t *testing.T) {
	b := NewUnroutedBuffer(Config{})
	p := quotePage(2, 16)
	if _, ok := b.Add(p); !ok {
		t.Fatal("page not captured")
	}
	html := dom.Render(p.Doc)
	caps, _, _, _ := b.snapshot("b1")
	if len(caps) != 1 || caps[0].HTML != html || caps[0].Size != int64(len(html)) {
		t.Fatalf("unexpected capture %+v", caps)
	}
	if _, ok := b.Add(&core.Page{URI: "http://x/placeholder"}); ok {
		t.Fatal("a page with neither source nor tree was captured")
	}
}

// captureBenchPages is a stream of distinct unrouted stock pages.
func captureBenchPages(n int) []capturePage {
	stocks := corpus.GenerateStocks(corpus.DefaultStockProfile(71, n))
	out := make([]capturePage, n)
	for i, p := range stocks.Pages {
		out[i] = capturePage{p.URI, dom.Render(p.Doc)}
	}
	return out
}

// captureAllocBudget bounds the allocations of one unrouted capture on
// the serving path — the stream fingerprint (tag-path and keyword sets)
// plus the buffer insert, at steady state with eviction running. On
// stock pages it measures 84; the parse-based path spent 119, and each
// tree node it built was another object for the collector to scan.
const captureAllocBudget = 110

// TestCaptureUnroutedAllocs pins the per-page allocation budget of the
// tree-free capture.
func TestCaptureUnroutedAllocs(t *testing.T) {
	pages := captureBenchPages(16)
	eng := NewEngine(Config{MaxBytes: 64 << 10}, &memStager{})
	defer eng.Close()
	i := 0
	got := testing.AllocsPerRun(64, func() {
		cp := pages[i%len(pages)]
		streamCapture(eng, fmt.Sprintf("%s?r=%d", cp.uri, i), cp.src, "")
		i++
	})
	if got > captureAllocBudget {
		t.Fatalf("%.0f allocs per capture, budget %d", got, captureAllocBudget)
	}
	oracle := NewUnroutedBuffer(Config{MaxBytes: 64 << 10})
	parsed := testing.AllocsPerRun(64, func() {
		cp := pages[i%len(pages)]
		parseCapture(oracle, core.NewPageLazy(fmt.Sprintf("%s?r=%d", cp.uri, i), cp.src), "")
		i++
	})
	t.Logf("allocs per capture: tree-free %.0f, parse-based %.0f", got, parsed)
}

// BenchmarkCaptureUnrouted measures one unrouted capture as the daemon
// performs it: the routing fingerprint pass over the raw page, then the
// buffer insert (bucket match, centroid fold, byte-cap eviction).
func BenchmarkCaptureUnrouted(b *testing.B) {
	pages := captureBenchPages(32)
	uris := make([]string, 1024)
	for i := range uris {
		uris[i] = fmt.Sprintf("%s?r=%d", pages[i%len(pages)].uri, i)
	}
	b.Run("stream", func(b *testing.B) {
		eng := NewEngine(Config{MaxBytes: 256 << 10}, &memStager{})
		defer eng.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cp := pages[i%len(pages)]
			streamCapture(eng, uris[i%len(uris)], cp.src, "")
		}
	})
	b.Run("parse-oracle", func(b *testing.B) {
		buf := NewUnroutedBuffer(Config{MaxBytes: 256 << 10})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cp := pages[i%len(pages)]
			parseCapture(buf, core.NewPageLazy(uris[i%len(uris)], cp.src), "")
		}
	})
}
