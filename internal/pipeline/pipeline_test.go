package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/extract"
	"repro/internal/rule"
)

// buildCluster induces a repository for a corpus cluster, offline-style.
func buildCluster(t testing.TB, cl *corpus.Cluster) *rule.Repository {
	t.Helper()
	sample, _ := cl.RepresentativeSplit(10)
	builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
		t.Fatal(err)
	}
	return repo
}

// collected replays every emitted item for assertions.
type collected struct {
	mu     sync.Mutex
	items  []*Item
	closed bool
}

func (c *collected) Emit(it *Item) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = append(c.items, it)
	return nil
}

func (c *collected) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// TestRunFixedRepo: every corpus page flows source → extract → sink with
// a fixed classification, in source order.
func TestRunFixedRepo(t *testing.T) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(31, 20))
	repo := buildCluster(t, cl)
	ex, err := NewStaticExtractor(map[string]*rule.Repository{"movies": repo})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collected{}
	stats, err := Run(context.Background(), Config{
		Workers:    4,
		Classifier: FixedRepo("movies"),
		Extractor:  ex,
	}, NewPageSource(cl.Pages), sink)
	if err != nil {
		t.Fatal(err)
	}
	if !sink.closed {
		t.Error("sink not closed")
	}
	if stats.Pages != len(cl.Pages) || stats.Extracted != len(cl.Pages) {
		t.Errorf("stats = %+v, want %d pages extracted", stats, len(cl.Pages))
	}
	if stats.Routed["movies"] != len(cl.Pages) {
		t.Errorf("routed = %v", stats.Routed)
	}
	for i, it := range sink.items {
		if it.Seq != i {
			t.Fatalf("item %d has seq %d: emission out of source order", i, it.Seq)
		}
		if it.Page.URI != cl.Pages[i].URI {
			t.Fatalf("item %d is page %s, want %s", i, it.Page.URI, cl.Pages[i].URI)
		}
		if it.Err != nil || it.Element == nil {
			t.Fatalf("item %d: err=%v element=%v", i, it.Err, it.Element)
		}
	}
}

// TestRunRoutedMixedClusters: pages from two clusters interleaved, routed
// by signature to the right repository; alien pages unrouted.
func TestRunRoutedMixedClusters(t *testing.T) {
	movies := corpus.GenerateMovies(corpus.DefaultMovieProfile(32, 16))
	books := corpus.GenerateBooks(corpus.DefaultBookProfile(33, 16))
	forum := corpus.GenerateForum(corpus.DefaultForumProfile(34, 4))

	router := cluster.NewRouter(0)
	for name, cl := range map[string]*corpus.Cluster{"imdb-movies": movies, "books": books} {
		var infos []cluster.PageInfo
		for _, p := range cl.Pages[:8] {
			infos = append(infos, cluster.PageInfo{URI: p.URI, Doc: p.Doc})
		}
		router.Register(name, cluster.SignatureOf(infos))
	}
	ex, err := NewStaticExtractor(map[string]*rule.Repository{
		"imdb-movies": buildCluster(t, movies),
		"books":       buildCluster(t, books),
	})
	if err != nil {
		t.Fatal(err)
	}

	var pages []*core.Page
	want := map[string]string{}
	for i := 8; i < 16; i++ {
		pages = append(pages, movies.Pages[i], books.Pages[i])
		want[movies.Pages[i].URI] = "imdb-movies"
		want[books.Pages[i].URI] = "books"
	}
	pages = append(pages, forum.Pages...)

	sink := &collected{}
	stats, err := Run(context.Background(), Config{
		Classifier: RouteWith(router),
		Extractor:  ex,
	}, NewPageSource(pages), sink)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, it := range sink.items {
		if w, ok := want[it.Page.URI]; ok {
			if it.Err == nil && it.Repo == w {
				correct++
			} else {
				t.Logf("page %s: repo=%q err=%v", it.Page.URI, it.Repo, it.Err)
			}
		} else if !errors.Is(it.Err, ErrUnrouted) {
			t.Errorf("forum page %s not unrouted: repo=%q err=%v", it.Page.URI, it.Repo, it.Err)
		}
	}
	if acc := float64(correct) / float64(len(want)); acc < 0.95 {
		t.Errorf("routing accuracy %.2f (%d/%d)", acc, correct, len(want))
	}
	if stats.Unrouted != len(forum.Pages) {
		t.Errorf("stats.Unrouted = %d, want %d", stats.Unrouted, len(forum.Pages))
	}
}

// TestRunBoundedInFlight: the source is never drained more than the
// in-flight window ahead of the sink — the bounded-memory property.
func TestRunBoundedInFlight(t *testing.T) {
	const pages, buffer = 64, 4
	var produced, emitted atomic.Int64
	var maxLead int64
	src := ClassifierFunc(nil) // silence unused lint via explicit type below
	_ = src

	mk := func(i int) *core.Page {
		return core.NewPage(fmt.Sprintf("http://x/p%d", i), "<html><body>p</body></html>")
	}
	source := sourceFunc(func(ctx context.Context) (*core.Page, error) {
		n := produced.Add(1)
		if n > pages {
			return nil, io.EOF
		}
		if lead := n - emitted.Load(); lead > maxLead {
			maxLead = lead
		}
		return mk(int(n)), nil
	})
	sink := FuncSink(func(it *Item) error {
		emitted.Add(1)
		return nil
	})
	if _, err := Run(context.Background(), Config{Workers: 2, Buffer: buffer}, source, sink); err != nil {
		t.Fatal(err)
	}
	// The window is Buffer items in ordered + workers in flight + the one
	// being fed; anything near `pages` means the source was slurped.
	if limit := int64(buffer + 2 + 2); maxLead > limit {
		t.Errorf("source ran %d items ahead of the sink, want <= %d", maxLead, limit)
	}
}

type sourceFunc func(ctx context.Context) (*core.Page, error)

func (f sourceFunc) Next(ctx context.Context) (*core.Page, error) { return f(ctx) }

// TestRunPageErrorsContinue: a malformed NDJSON line fails its own item;
// the rest of the stream still extracts.
func TestRunPageErrorsContinue(t *testing.T) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(35, 3))
	repo := buildCluster(t, cl)
	ex, _ := NewStaticExtractor(map[string]*rule.Repository{"movies": repo})

	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.Encode(PageLine{URI: cl.Pages[0].URI, HTML: dom.Render(cl.Pages[0].Doc)})
	buf.WriteString("{broken json\n\n")
	enc.Encode(PageLine{URI: cl.Pages[1].URI, HTML: dom.Render(cl.Pages[1].Doc)})

	sink := &collected{}
	stats, err := Run(context.Background(), Config{
		Classifier: FixedRepo("movies"),
		Extractor:  ex,
	}, NewNDJSONSource(strings.NewReader(buf.String()), 0, nil), sink)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pages != 3 || stats.Extracted != 2 || stats.PageErrors != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	var pe *PageError
	if !errors.As(sink.items[1].Err, &pe) || pe.Line != 2 {
		t.Errorf("item 1 error = %v, want PageError at line 2", sink.items[1].Err)
	}
}

// TestRunSinkErrorAborts: a failing sink stops the run with its error.
func TestRunSinkErrorAborts(t *testing.T) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(36, 10))
	boom := errors.New("disk full")
	n := 0
	sink := FuncSink(func(it *Item) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	})
	_, err := Run(context.Background(), Config{}, NewPageSource(cl.Pages), sink)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestRunCancel: cancelling the context ends the run promptly.
func TestRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	i := 0
	source := sourceFunc(func(ctx context.Context) (*core.Page, error) {
		i++
		if i == 5 {
			cancel()
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return core.NewPage("http://x/p", "<html></html>"), nil
	})
	_, err := Run(ctx, Config{}, source, &collected{})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}

// TestManifestSourceAndPagesDirSink round-trip a pages directory through
// the pipeline with no extraction stage (the crawl shape).
func TestManifestSourceAndPagesDirSink(t *testing.T) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(37, 6))
	dir := t.TempDir()

	sink, err := NewPagesDirSink(dir, "movies")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(context.Background(), Config{}, NewPageSource(cl.Pages), sink)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pages != 6 || sink.PageCount() != 6 {
		t.Fatalf("stats=%+v written=%d", stats, sink.PageCount())
	}

	src, err := NewManifestSource(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if src.Manifest().Cluster != "movies" {
		t.Errorf("cluster = %q", src.Manifest().Cluster)
	}
	back := &collected{}
	stats, err = Run(context.Background(), Config{}, src, back)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pages != 6 {
		t.Fatalf("reloaded %d pages", stats.Pages)
	}
	uris := map[string]bool{}
	for _, it := range back.items {
		uris[it.Page.URI] = true
	}
	for _, p := range cl.Pages {
		if !uris[p.URI] {
			t.Errorf("page %s lost in round-trip", p.URI)
		}
	}
}

// TestManifestSourceMissingFile: a manifest entry whose file is gone is a
// page-level error, not a run abort.
func TestManifestSourceMissingFile(t *testing.T) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(38, 3))
	dir := t.TempDir()
	sink, _ := NewPagesDirSink(dir, "movies")
	if _, err := Run(context.Background(), Config{}, NewPageSource(cl.Pages), sink); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "page001.html")); err != nil {
		t.Fatal(err)
	}
	src, err := NewManifestSource(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	back := &collected{}
	stats, err := Run(context.Background(), Config{}, src, back)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pages != 3 || stats.PageErrors != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestAggregateXMLMatchesExtractCluster: the pipeline's aggregated XML
// document is byte-identical to the offline processor's ExtractCluster —
// the refactored extract CLI cannot silently change its output.
func TestAggregateXMLMatchesExtractCluster(t *testing.T) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(39, 12))
	repo := buildCluster(t, cl)
	ex, err := NewStaticExtractor(map[string]*rule.Repository{repo.Cluster: repo})
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	agg := NewAggregateXML(&got, repo.Cluster, false)
	if _, err := Run(context.Background(), Config{
		Classifier: FixedRepo(repo.Cluster),
		Extractor:  ex,
	}, NewPageSource(cl.Pages), agg); err != nil {
		t.Fatal(err)
	}

	proc := ex[repo.Cluster]
	doc, _ := proc.ExtractCluster(cl.Pages)
	var want strings.Builder
	if err := doc.WriteXML(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("aggregate XML differs from ExtractCluster:\n--- pipeline ---\n%s\n--- offline ---\n%s",
			got.String(), want.String())
	}
}

// TestNDJSONSourceOversizedLine: a line beyond the cap surfaces as a
// page-level error and ends the stream cleanly.
func TestNDJSONSourceOversizedLine(t *testing.T) {
	line1, _ := json.Marshal(PageLine{URI: "http://x/1", HTML: "<html><body>ok</body></html>"})
	big := strings.Repeat("x", 4096)
	input := string(line1) + "\n" + `{"uri":"http://x/2","html":"` + big + `"}` + "\n"

	sink := &collected{}
	stats, err := Run(context.Background(), Config{},
		NewNDJSONSource(strings.NewReader(input), 512, nil), sink)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pages != 2 || stats.PageErrors != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if sink.items[1].Err == nil {
		t.Error("oversized line produced no error item")
	}
}

// TestNDJSONSourceRecoversAcrossBadLines: consecutive malformed lines
// each fail as their own item with the right physical line number —
// blank lines counted — and the stream keeps delivering every good page
// around them.
func TestNDJSONSourceRecoversAcrossBadLines(t *testing.T) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(61, 10))
	repo := buildCluster(t, cl)
	ex, _ := NewStaticExtractor(map[string]*rule.Repository{"movies": repo})

	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.Encode(PageLine{URI: cl.Pages[0].URI, HTML: dom.Render(cl.Pages[0].Doc)}) // line 1
	buf.WriteString("{broken\n")                                                  // line 2
	buf.WriteString("also broken}\n")                                             // line 3
	buf.WriteString("\n")                                                         // line 4 (blank, skipped)
	enc.Encode(PageLine{URI: cl.Pages[1].URI, HTML: dom.Render(cl.Pages[1].Doc)}) // line 5
	buf.WriteString("[1,2]\n")                                                    // line 6 (valid JSON, wrong shape)
	enc.Encode(PageLine{URI: cl.Pages[2].URI, HTML: dom.Render(cl.Pages[2].Doc)}) // line 7

	sink := &collected{}
	stats, err := Run(context.Background(), Config{
		Classifier: FixedRepo("movies"),
		Extractor:  ex,
	}, NewNDJSONSource(strings.NewReader(buf.String()), 0, nil), sink)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pages != 6 || stats.Extracted != 3 || stats.PageErrors != 3 {
		t.Fatalf("stats = %+v, want 6 items: 3 extracted, 3 line errors", stats)
	}
	wantLines := map[int]int{1: 2, 2: 3, 4: 6} // item index → failing input line
	for idx, line := range wantLines {
		var pe *PageError
		if !errors.As(sink.items[idx].Err, &pe) || pe.Line != line {
			t.Errorf("item %d error = %v, want PageError at line %d", idx, sink.items[idx].Err, line)
		}
	}
	for _, idx := range []int{0, 3, 5} {
		if sink.items[idx].Err != nil || sink.items[idx].Element == nil {
			t.Errorf("item %d not extracted: err=%v", idx, sink.items[idx].Err)
		}
	}
}

// TestNDJSONSourceTruncatedFinalLine: an upload cut off mid-JSON (no
// trailing newline) fails as a page-level error on its own line; the
// pages before it still extract and the run completes.
func TestNDJSONSourceTruncatedFinalLine(t *testing.T) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(62, 8))
	repo := buildCluster(t, cl)
	ex, _ := NewStaticExtractor(map[string]*rule.Repository{"movies": repo})

	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.Encode(PageLine{URI: cl.Pages[0].URI, HTML: dom.Render(cl.Pages[0].Doc)})
	full, _ := json.Marshal(PageLine{URI: cl.Pages[1].URI, HTML: dom.Render(cl.Pages[1].Doc)})
	buf.WriteString(string(full[:len(full)/2])) // connection died mid-line

	sink := &collected{}
	stats, err := Run(context.Background(), Config{
		Classifier: FixedRepo("movies"),
		Extractor:  ex,
	}, NewNDJSONSource(strings.NewReader(buf.String()), 0, nil), sink)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pages != 2 || stats.Extracted != 1 || stats.PageErrors != 1 {
		t.Fatalf("stats = %+v, want the whole page extracted and the torso failed", stats)
	}
	var pe *PageError
	if !errors.As(sink.items[1].Err, &pe) || pe.Line != 2 {
		t.Errorf("truncated line error = %v, want PageError at line 2", sink.items[1].Err)
	}
}

// TestNDJSONSourceNoResyncAfterOversize: once a line exceeds the cap the
// scanner cannot find the next boundary, so the source must report EOF
// rather than misattribute trailing bytes to invented pages.
func TestNDJSONSourceNoResyncAfterOversize(t *testing.T) {
	big := strings.Repeat("y", 2048)
	input := `{"uri":"http://x/big","html":"` + big + `"}` + "\n" +
		`{"uri":"http://x/after","html":"<p>x</p>"}` + "\n"
	src := NewNDJSONSource(strings.NewReader(input), 256, nil)

	_, err := src.Next(context.Background())
	var pe *PageError
	if !errors.As(err, &pe) || pe.Line != 1 {
		t.Fatalf("first Next = %v, want PageError at line 1", err)
	}
	if _, err := src.Next(context.Background()); err != io.EOF {
		t.Fatalf("Next after oversize = %v, want io.EOF (no resync)", err)
	}
}

// lineFlushCounter is a flushing writer that records, at every Flush,
// how many lines had been written: the lines a client has received.
type lineFlushCounter struct {
	mu             sync.Mutex
	lines, flushes int
	flushed        int // lines written before the last Flush
	maxUnflushed   int // most lines out unflushed when another was written
}

func (w *lineFlushCounter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.maxUnflushed = max(w.maxUnflushed, w.lines-w.flushed)
	w.lines += strings.Count(string(b), "\n")
	return len(b), nil
}

func (w *lineFlushCounter) Flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushes++
	w.flushed = w.lines
}

// waitFlushed reports whether n lines were flushed within 10 seconds.
func (w *lineFlushCounter) waitFlushed(n int) bool {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
		w.mu.Lock()
		done := w.flushed >= n
		w.mu.Unlock()
		if done {
			return true
		}
	}
	return false
}

func seqLine(dst []byte, it *Item) ([]byte, error) {
	return append(fmt.Appendf(dst, "%d", it.Seq), '\n'), nil
}

// TestRunFlushesWhenWindowDrains pins Run's flush policy over an
// NDJSONSink: the sink is flushed when no admitted item is left to emit,
// so a finished line never waits for input, or once every page admitted
// when the oldest unflushed line went out has been emitted, so it waits
// for at most Buffer+Workers-1 lines behind it; lines coalesce into one
// flush while the source runs ahead.
func TestRunFlushesWhenWindowDrains(t *testing.T) {
	page := func(i int) *core.Page { return core.NewPageLazy(fmt.Sprintf("http://x/p%d", i), "<p>x</p>") }

	// Latency neutrality: the source blocks after page k; lines 0…k are
	// flushed before it unblocks.
	t.Run("source blocks", func(t *testing.T) {
		const k = 4
		w := &lineFlushCounter{}
		i := 0
		source := sourceFunc(func(ctx context.Context) (*core.Page, error) {
			if i == k+1 {
				if !w.waitFlushed(k + 1) {
					t.Errorf("lines 0…%d not flushed while the source blocked", k)
				}
				return nil, io.EOF
			}
			i++
			return page(i - 1), nil
		})
		if _, err := Run(context.Background(), Config{Workers: 2, Buffer: 8}, source, NewNDJSONSink(w, seqLine)); err != nil {
			t.Fatal(err)
		}
		if w.lines != k+1 || w.flushed != k+1 {
			t.Fatalf("%d lines, %d flushed; want %d flushed", w.lines, w.flushed, k+1)
		}
	})

	// Lockstep: a client that sends page k only once it has received
	// line k-1 gets every line, at any worker count.
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("lockstep %d-worker", workers), func(t *testing.T) {
			const pages = 8
			w := &lineFlushCounter{}
			i := 0
			source := sourceFunc(func(ctx context.Context) (*core.Page, error) {
				if i > 0 && !w.waitFlushed(i) {
					t.Errorf("line %d not flushed before page %d was sent", i-1, i)
					return nil, io.EOF
				}
				if i == pages {
					return nil, io.EOF
				}
				i++
				return page(i - 1), nil
			})
			if _, err := Run(context.Background(), Config{Workers: workers}, source, NewNDJSONSink(w, seqLine)); err != nil {
				t.Fatal(err)
			}
			if w.lines != pages || w.flushed != pages {
				t.Fatalf("%d lines, %d flushed; want %d flushed", w.lines, w.flushed, pages)
			}
		})
	}

	// Running ahead at one worker: page k is extracted only once the
	// source has admitted page k+1, so the window never drains before
	// the end and the lines share flushes, one per admitted window.
	t.Run("runs ahead 1 worker", func(t *testing.T) {
		const pages = 64
		asked := make([]chan struct{}, pages+1) // asked[j] closes when Next is called for page j
		for j := range asked {
			asked[j] = make(chan struct{})
		}
		var pp []*core.Page
		for i := 0; i < pages; i++ {
			pp = append(pp, page(i))
		}
		next := 0
		source := sourceFunc(func(ctx context.Context) (*core.Page, error) {
			close(asked[next])
			if next == pages {
				return nil, io.EOF
			}
			next++
			return pp[next-1], nil
		})
		w := &lineFlushCounter{}
		_, err := Run(context.Background(), Config{
			Workers: 1,
			Extractor: extractorFunc(func(ctx context.Context, repo string, p *core.Page) (*extract.Element, map[string][]string, []extract.Failure, error) {
				var k int
				fmt.Sscanf(p.URI, "http://x/p%d", &k)
				<-asked[min(k+2, pages)]
				return &extract.Element{}, nil, nil, nil
			}),
		}, source, NewNDJSONSink(w, seqLine))
		if err != nil {
			t.Fatal(err)
		}
		if w.lines != pages || w.flushed != pages {
			t.Fatalf("%d lines, %d flushed; want all %d flushed", w.lines, w.flushed, pages)
		}
		if per := float64(w.flushes) / pages; per > 0.5 {
			t.Fatalf("%d flushes for %d pages (%.2f per page), want at most 0.5", w.flushes, pages, per)
		}
	})

	// Bounded wait: with the source always ready the window never
	// drains before the end, yet a line is flushed before the
	// Buffer+Workers-th line behind it is written.
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("bounded wait %d-worker", workers), func(t *testing.T) {
			const pages, buffer = 200, 3
			var pp []*core.Page
			for i := 0; i < pages; i++ {
				pp = append(pp, page(i))
			}
			w := &lineFlushCounter{}
			if _, err := Run(context.Background(), Config{Workers: workers, Buffer: buffer}, NewPageSource(pp), NewNDJSONSink(w, seqLine)); err != nil {
				t.Fatal(err)
			}
			if w.lines != pages || w.flushed != pages {
				t.Fatalf("%d lines, %d flushed; want all %d flushed", w.lines, w.flushed, pages)
			}
			if bound := buffer + workers - 1; w.maxUnflushed > bound {
				t.Fatalf("a line was written with %d lines out unflushed, want at most %d", w.maxUnflushed, bound)
			}
		})
	}

	// Coalescing: with the source always ready and the head held back
	// until the last page is being extracted, the lines finished behind
	// the head leave together — fewer flushes than lines.
	t.Run("coalesces", func(t *testing.T) {
		const pages = 6
		lastStarted := make(chan struct{})
		var pp []*core.Page
		for i := 0; i < pages; i++ {
			pp = append(pp, page(i))
		}
		w := &lineFlushCounter{}
		_, err := Run(context.Background(), Config{
			Workers: 2, Buffer: 8,
			Extractor: extractorFunc(func(ctx context.Context, repo string, p *core.Page) (*extract.Element, map[string][]string, []extract.Failure, error) {
				switch p {
				case pp[0]:
					<-lastStarted
				case pp[pages-1]:
					close(lastStarted)
				}
				return &extract.Element{}, nil, nil, nil
			}),
		}, NewPageSource(pp), NewNDJSONSink(w, seqLine))
		if err != nil {
			t.Fatal(err)
		}
		if w.lines != pages || w.flushed != pages || w.flushes >= pages {
			t.Fatalf("%d lines, %d flushed, %d flushes; want all %d flushed in fewer flushes", w.lines, w.flushed, w.flushes, pages)
		}
	})
}
