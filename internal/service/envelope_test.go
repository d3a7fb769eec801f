package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/extract"
	"repro/internal/pipeline"
)

// extractResult is the JSON envelope of one extracted page. Tests decode
// responses into it, and encoding/json over it, with the record as its
// JSONValue tree, is the reference the appended envelope must equal.
type extractResult struct {
	URI        string   `json:"uri"`
	Repo       string   `json:"repo"`
	Generation int      `json:"generation"`
	Record     any      `json:"record"`
	Failures   []string `json:"failures,omitempty"`
}

func failureStrings(fails []extract.Failure) []string {
	out := make([]string, 0, len(fails))
	for _, f := range fails {
		out = append(out, f.String())
	}
	return out
}

// refEnvelope is the /extract body as writeJSON renders the envelope:
// an indenting json.Encoder over the JSONValue tree.
func refEnvelope(uri, repo string, gen int, el *extract.Element, fails []extract.Failure) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, extractResult{
		URI: uri, Repo: repo, Generation: gen, Record: el.JSONValue(), Failures: failureStrings(fails),
	})
	return rec.Body.Bytes()
}

// refBatchLine is the /extract/batch line a compact json.Encoder writes
// for an item, gen being its repository's serving generation.
func refBatchLine(t testing.TB, it *pipeline.Item, gen int) []byte {
	t.Helper()
	var v any
	var pe *pipeline.PageError
	switch {
	case errors.As(it.Err, &pe) && pe.Line > 0:
		v = map[string]string{"error": pe.Error()}
	case it.Err != nil:
		v = map[string]string{"uri": it.Page.URI, "error": it.Err.Error()}
	default:
		v = extractResult{
			URI: it.Page.URI, Repo: it.Repo, Generation: gen,
			Record: it.Element.JSONValue(), Failures: failureStrings(it.Failures),
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// envelopeCase is one page posted to /extract and its reference body.
type envelopeCase struct {
	repo, uri, html string
	want            []byte
	failing         bool
}

// envelopeCases loads a movies, a books and a forum repository into srv
// and returns, per cluster, four clean pages and four copies with a
// component removed, each with the body encoding/json would answer.
func envelopeCases(t testing.TB, srv *Server) []envelopeCase {
	t.Helper()
	var cases []envelopeCase
	for _, cl := range []*corpus.Cluster{
		corpus.GenerateMovies(corpus.DefaultMovieProfile(81, 12)),
		corpus.GenerateBooks(corpus.DefaultBookProfile(82, 12)),
		corpus.GenerateForum(corpus.DefaultForumProfile(83, 12)),
	} {
		repo := buildRepoWithSignature(t, cl)
		e, err := srv.LoadRepo(cl.Name, repo)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := extract.NewProcessor(repo)
		if err != nil {
			t.Fatal(err)
		}
		drifted, _ := corpus.InjectDrift(cl, cl.ComponentNames()[0], corpus.DriftRemoveMandatory, 1, 84)
		for _, p := range append(cl.Pages[:4:4], drifted[4:8]...) {
			html := dom.Render(p.Doc)
			el, fails := proc.ExtractPage(core.NewPage(p.URI, html))
			cases = append(cases, envelopeCase{
				repo: cl.Name, uri: p.URI, html: html,
				want:    refEnvelope(p.URI, e.Name, e.Generation, el, fails),
				failing: len(fails) > 0,
			})
		}
	}
	return cases
}

// TestExtractEnvelopeMatchesEncoder is the /extract differential: over
// movies, books and forum pages, clean and failing, the response body is
// byte for byte what writeJSON made of the JSONValue envelope, and its
// Content-Length says so.
func TestExtractEnvelopeMatchesEncoder(t *testing.T) {
	srv := NewServer(2, 4, nil)
	defer srv.Close()
	h := srv.Handler()
	var clean, failing int
	for _, c := range envelopeCases(t, srv) {
		req := httptest.NewRequest(http.MethodPost,
			"/extract?repo="+c.repo+"&uri="+url.QueryEscape(c.uri), strings.NewReader(c.html))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.uri, rec.Code, rec.Body)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, c.want) {
			t.Fatalf("%s: body diverges from the encoding/json envelope\n  got  %s\n  want %s", c.uri, got, c.want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(c.want)) {
			t.Errorf("%s: Content-Length %q, body is %d bytes", c.uri, cl, len(c.want))
		}
		if c.failing {
			failing++
		} else {
			clean++
		}
	}
	if clean == 0 || failing == 0 {
		t.Fatalf("cases cover %d clean and %d failing pages, want both", clean, failing)
	}
}

// TestExtractEnvelopeEscapes runs the envelope over strings encoding/json
// escapes: HTML-sensitive bytes, quotes, backslashes, control bytes,
// U+2028 and invalid UTF-8, in every field, with and without failures.
func TestExtractEnvelopeEscapes(t *testing.T) {
	odd := "a<&>\"\\\t\x01\u2028\xff{},:[]"
	el := extract.NewElement("page")
	el.SetAttr("uri", odd)
	el.Add(extract.NewElement("title")).Text = odd
	el.Add(extract.NewElement("actor")).Text = "A"
	el.Add(extract.NewElement("actor")).Text = "B\\"
	fails := []extract.Failure{
		{PageURI: odd, Component: "title", Kind: extract.FailureMissingMandatory, Detail: odd},
		{PageURI: "u", Component: "actor", Kind: extract.FailureMultipleValues, Detail: "2 nodes"},
	}
	var b envelopeBuf
	for _, fs := range [][]extract.Failure{nil, fails[:1], fails} {
		for _, gen := range []int{0, 7, -1} {
			want := refEnvelope(odd, odd, gen, el, fs)
			if got := b.render(odd, odd, gen, el, fs); !bytes.Equal(got, want) {
				t.Fatalf("render diverges\n  got  %s\n  want %s", got, want)
			}
			wantLine := refBatchLine(t, &pipeline.Item{
				Page: &core.Page{URI: odd}, Repo: odd, Element: el, Failures: fs,
			}, gen)
			if got := append(appendExtractResult(nil, odd, odd, gen, el, fs), '\n'); !bytes.Equal(got, wantLine) {
				t.Fatalf("compact envelope diverges\n  got  %s\n  want %s", got, wantLine)
			}
		}
	}
}

// TestBatchLineMatchesEncoder is the /extract/batch differential on each
// line shape: a malformed input line, a failed page, and extracted pages
// with and without failures, each against the compact json.Encoder line.
func TestBatchLineMatchesEncoder(t *testing.T) {
	srv := NewServer(1, 1, nil)
	defer srv.Close()
	cl, repo := buildMoviesRepo(t, 85, 8)
	e, err := srv.LoadRepo("movies", repo)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := extract.NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}
	el, _ := proc.ExtractPage(cl.Pages[0])
	odd := "x<&>\" \xfe"
	items := []*pipeline.Item{
		{Page: &core.Page{}, Err: &pipeline.PageError{Line: 3, Err: errors.New("bad " + odd)}},
		{Page: &core.Page{URI: odd}, Err: fmt.Errorf("unrouted: %w", pipeline.ErrUnrouted)},
		{Page: &core.Page{URI: odd}, Err: &pipeline.PageError{URI: odd, Err: errors.New("panic " + odd)}},
		{Page: cl.Pages[0], Repo: "movies", Element: el},
		{Page: cl.Pages[0], Repo: "movies", Element: el, Failures: []extract.Failure{
			{PageURI: odd, Component: "title", Kind: extract.FailureMissingMandatory, Detail: odd}}},
		{Page: cl.Pages[0], Repo: "gone", Element: el},
	}
	for i, it := range items {
		gen := 0
		if it.Repo == "movies" {
			gen = e.Generation
		}
		want := refBatchLine(t, it, gen)
		if got := append(srv.appendBatchLine(nil, it), '\n'); !bytes.Equal(got, want) {
			t.Errorf("item %d: batch line diverges\n  got  %s\n  want %s", i, got, want)
		}
	}
}

// TestExtractBatchMatchesEncoder posts a batch mixing pages, a drifted
// page and a malformed line, and compares the whole NDJSON body with the
// lines json.Encoder wrote for the same results.
func TestExtractBatchMatchesEncoder(t *testing.T) {
	srv := NewServer(2, 4, nil)
	defer srv.Close()
	cl, repo := buildMoviesRepo(t, 86, 10)
	e, err := srv.LoadRepo("movies", repo)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := extract.NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}
	drifted, _ := corpus.InjectDrift(cl, cl.ComponentNames()[0], corpus.DriftRemoveMandatory, 1, 87)
	pages := append(cl.Pages[:3:3], drifted[3:5]...)
	var in, want bytes.Buffer
	for i, p := range pages {
		html := dom.Render(p.Doc)
		line, err := json.Marshal(pipeline.PageLine{URI: p.URI, HTML: html})
		if err != nil {
			t.Fatal(err)
		}
		in.Write(append(line, '\n'))
		el, fails := proc.ExtractPage(core.NewPage(p.URI, html))
		want.Write(refBatchLine(t, &pipeline.Item{Page: p, Repo: "movies", Element: el, Failures: fails}, e.Generation))
		if i == 1 {
			in.WriteString("not-json\n")
			want.Write(refBatchLine(t, &pipeline.Item{Err: &pipeline.PageError{
				Line: 3, Err: errors.New("invalid character 'o' in literal null (expecting 'u')"),
			}}, 0))
		}
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/extract/batch?repo=movies", &in))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d: %s", rec.Code, rec.Body)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("batch body diverges from json.Encoder lines\n  got  %s\n  want %s", rec.Body, want.Bytes())
	}
	if !bytes.Contains(want.Bytes(), []byte(`"failures":[`)) {
		t.Fatal("no drifted page reported failures")
	}
}

// cancelOnWrite is a ResponseWriter whose first Write cancels the request
// context, as a deadline expiring mid-stream would, and which counts
// explicit WriteHeader calls.
type cancelOnWrite struct {
	*httptest.ResponseRecorder
	cancel       context.CancelFunc
	writeHeaders int
}

func (w *cancelOnWrite) WriteHeader(code int) {
	w.writeHeaders++
	w.ResponseRecorder.WriteHeader(code)
}

func (w *cancelOnWrite) Write(b []byte) (int, error) {
	w.cancel()
	return w.ResponseRecorder.Write(b)
}

// TestExtractBatchMidStreamError: on both streamed endpoints, a run that
// fails after a result line went out reports the error in-band — one
// compact {"error"} line on /extract/batch, the summary line on /ingest —
// with no second status and no indented object, and still counts as an
// endpoint error.
func TestExtractBatchMidStreamError(t *testing.T) {
	cl, repo := buildMoviesRepo(t, 88, 8)
	var in bytes.Buffer
	for _, p := range cl.Pages[:4] {
		line, err := json.Marshal(pipeline.PageLine{URI: p.URI, HTML: dom.Render(p.Doc)})
		if err != nil {
			t.Fatal(err)
		}
		in.Write(append(line, '\n'))
	}
	for _, tc := range []struct {
		path, endpoint string
		// checkTail checks the line after the one result line.
		checkTail func(t *testing.T, line string)
	}{
		{"/extract/batch", "extract.batch", func(t *testing.T, line string) {
			if want := `{"error":"context canceled"}` + "\n"; line != want {
				t.Errorf("last line = %q, want %q", line, want)
			}
		}},
		{"/ingest", "ingest", func(t *testing.T, line string) {
			var sum ingestSummary
			if err := json.Unmarshal([]byte(line), &sum); err != nil {
				t.Fatalf("summary line %q: %v", line, err)
			}
			// Pages is not pinned: how many pages the run emitted before
			// it saw the cancellation varies between runs.
			if !sum.Done || sum.Error != "context canceled" || sum.Trace == "" {
				t.Errorf("summary = %+v, want done, error \"context canceled\" and a trace", sum)
			}
		}},
	} {
		t.Run(tc.endpoint, func(t *testing.T) {
			srv := NewServer(2, 4, nil)
			defer srv.Close()
			if _, err := srv.LoadRepo("movies", repo); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w := &cancelOnWrite{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
			body := bytes.NewReader(in.Bytes())
			req := httptest.NewRequest(http.MethodPost, tc.path+"?repo=movies", body).WithContext(ctx)
			srv.Handler().ServeHTTP(w, req)

			if w.writeHeaders != 0 || w.Code != http.StatusOK {
				t.Errorf("status %d after %d WriteHeader calls, want the streamed 200 alone", w.Code, w.writeHeaders)
			}
			lines := strings.SplitAfter(w.Body.String(), "\n")
			if len(lines) != 3 || lines[2] != "" {
				t.Fatalf("body = %q, want one result line and one closing line", w.Body.String())
			}
			var first struct{ URI string }
			if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.URI != cl.Pages[0].URI {
				t.Errorf("first line %q: %v", lines[0], err)
			}
			tc.checkTail(t, lines[1])
			if n := srv.Metrics.Snapshot().Errors[tc.endpoint]; n != 1 {
				t.Errorf("%s errors = %d, want 1", tc.endpoint, n)
			}
		})
	}
}

// movieEnvelope extracts one movies page for the envelope alloc pin and
// benchmark.
func movieEnvelope(t testing.TB) (*extract.Element, string) {
	t.Helper()
	cl, repo := buildMoviesRepo(t, 89, 12)
	proc, err := extract.NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}
	p := cl.Pages[len(cl.Pages)-1]
	el, fails := proc.ExtractPage(p)
	if len(fails) > 0 || len(el.Children) == 0 {
		t.Fatalf("reference page extracts %d children with failures %v", len(el.Children), fails)
	}
	return el, p.URI
}

// TestExtractEnvelopeZeroAllocs pins the warm /extract envelope encode:
// with its pooled buffers grown, rendering a record allocates nothing.
func TestExtractEnvelopeZeroAllocs(t *testing.T) {
	el, uri := movieEnvelope(t)
	var b envelopeBuf
	b.render(uri, "imdb-movies", 3, el, nil)
	if allocs := testing.AllocsPerRun(100, func() { b.render(uri, "imdb-movies", 3, el, nil) }); allocs != 0 {
		t.Errorf("warm envelope render allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkExtractEnvelope times the service.encode layer of /extract:
// one movie record rendered into its indented response body.
func BenchmarkExtractEnvelope(b *testing.B) {
	el, uri := movieEnvelope(b)
	var buf envelopeBuf
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.SetBytes(int64(len(buf.render(uri, "imdb-movies", 3, el, nil))))
	}
}
