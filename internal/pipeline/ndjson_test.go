package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/extract"
	"repro/internal/rule"
)

// wireFixture is a movies+books page stream in both wire directions: the
// page lines an HTML-escaping client (encoding/json defaults) ships to
// /ingest, and the routed, extracted items /ingest streams back.
type wireFixture struct {
	lines [][]byte
	items []*Item
}

var (
	wireOnce sync.Once
	wire     wireFixture
)

func loadWireFixture(tb testing.TB) *wireFixture {
	tb.Helper()
	wireOnce.Do(func() {
		clusters := []*corpus.Cluster{
			corpus.GenerateMovies(corpus.DefaultMovieProfile(71, 24)),
			corpus.GenerateBooks(corpus.DefaultBookProfile(72, 24)),
		}
		repos := map[string]*rule.Repository{}
		for _, cl := range clusters {
			repos[cl.Name] = buildCluster(tb, cl)
		}
		ex, err := NewStaticExtractor(repos)
		if err != nil {
			tb.Fatal(err)
		}
		for _, cl := range clusters {
			for _, p := range cl.Pages {
				html := dom.Render(p.Doc)
				line, err := json.Marshal(PageLine{URI: p.URI, HTML: html})
				if err != nil {
					tb.Fatal(err)
				}
				wire.lines = append(wire.lines, line)
				page := core.NewPageLazy(p.URI, html)
				el, values, fails, err := ex.Extract(context.Background(), cl.Name, page)
				wire.items = append(wire.items, &Item{Page: page, Repo: cl.Name, Score: 0.8734251968503937,
					Element: el, Values: values, Failures: fails, Err: err})
			}
		}
	})
	if len(wire.items) == 0 {
		tb.Fatal("wire fixture failed to build")
	}
	return &wire
}

// decodeMatches requires the page-line decoder to agree with
// json.Unmarshal: the same value on success, the same error text on
// failure.
func decodeMatches(t *testing.T, d *pageLineDecoder, line []byte) {
	t.Helper()
	var want PageLine
	wantErr := json.Unmarshal(line, &want)
	var got PageLine
	gotErr := d.decode(line, &got)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("decode(%q): err %v, json.Unmarshal err %v", line, gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("decode(%q): err %q, json.Unmarshal err %q", line, gotErr, wantErr)
		}
	case got != want:
		t.Fatalf("decode(%q) = %+v, json.Unmarshal = %+v", line, got, want)
	}
}

// bs is a backslash, kept out of the literals below so every escape in
// the seed lines reads as JSON, not as Go.
const bs = `\`

// pageLineSeeds is the committed seed corpus of FuzzPageLineDecode:
// canonical lines (both key orders, whitespace, every escape) and each
// shape the decoder must hand to json.Unmarshal.
var pageLineSeeds = []string{
	`{"uri":"http://x/1","html":"<p>x</p>"}`,
	`{"html":"<p>x</p>","uri":"http://x/1"}`,
	` { "uri" : "u" , "html" : "h" } `,
	"{\"uri\":\"u\",\r\n\t\"html\":\"h\"}",
	`{"uri":"","html":""}`,
	`{"uri":"only"}`,
	`{"html":"only"}`,
	`{"uri":"a` + bs + `"b` + bs + bs + `c` + bs + `/d` + bs + `b` + bs + `f` + bs + `n` + bs + `r` + bs + `t"}`,
	`{"html":"` + bs + `u003cp` + bs + `u003ex` + bs + `u0026amp;` + bs + `u00e9` + bs + `u4E16` + bs + `u2028"}`,
	`{"html":"caf` + "\xc3\xa9" + ` ` + "\xe4\xb8\x96" + ` ` + bs + `u003c"}`,
	// Fallback shapes: surrogates (paired and lone), invalid UTF-8,
	// controls, unknown and case-folded keys, duplicates, null, numbers.
	`{"html":"` + bs + `ud83d` + bs + `ude00"}`,
	`{"html":"` + bs + `ud800x"}`,
	"{\"html\":\"bad\xff\"}",
	"{\"html\":\"" + bs + "u0041bad\xc3\"}",
	"{\"html\":\"tab\tinside\"}",
	`{"URI":"u","Html":"h"}`,
	`{"uri":"u","html":"h","extra":1}`,
	`{"uri":"a","uri":"b"}`,
	`{"uri":null,"html":"h"}`,
	`{"uri":1}`,
	`{"html":"` + bs + `x"}`,
	`{"html":"` + bs + `u12"}`,
	`{"html":"` + bs + `u12G4"}`,
	`{"uri":"u",}`,
	`{"uri":"u"} x`,
	`{"uri":"u"}}`,
	`{"uri" "u"}`,
	`{"uri":"u"`,
	`{"uri":"u`,
	`{}`, `[]`, `[1,2]`, `"str"`, `null`, `{broken`, `also broken}`, `{`, `"`,
}

// FuzzPageLineDecode is the differential guarantee of the page-line
// decoder: for any line it returns what json.Unmarshal into a PageLine
// returns — the same value, or the same error text. The seeds run in
// every plain `go test`; `go test -fuzz=FuzzPageLineDecode
// ./internal/pipeline` mutates from them.
func FuzzPageLineDecode(f *testing.F) {
	for _, s := range pageLineSeeds {
		f.Add([]byte(s))
	}
	var d pageLineDecoder
	f.Fuzz(func(t *testing.T, line []byte) {
		decodeMatches(t, &d, line)
	})
}

// resultLineMatches requires AppendResultLine to write exactly what
// json.Encoder.Encode writes for the item's MakeResultLine.
func resultLineMatches(t *testing.T, it *Item, trace string) {
	t.Helper()
	line := MakeResultLine(it)
	line.Trace = trace
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(line); err != nil {
		t.Fatal(err)
	}
	if got := AppendResultLine(nil, it, trace); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("AppendResultLine diverges from json.Encoder\n  got  %s  want %s", got, want.Bytes())
	}
}

// FuzzResultLine is the differential guarantee of the result-line
// encoder against json.Encoder.Encode(MakeResultLine(it)): error items,
// records, failures, and scores across both of encoding/json's float
// formats ('f', and 'e' below 1e-6 or from 1e21 on).
func FuzzResultLine(f *testing.F) {
	for _, score := range []float64{0, 1, 0.8734251968503937, -0.5, 1e-6, 9.99e-7, 1e-7, 5e-324, 1e20, 1e21, 1.5e300, -2e-9} {
		f.Add("http://x/1", "movies", score, uint8(1), "Vertigo", "be", "")
	}
	f.Add("", "", 0.0, uint8(0), "", "", "")
	f.Add("http://x/<&>", "books", 0.5, uint8(0), "pipeline: page unrouted", "", "")
	f.Add("u", "", 0.0, uint8(0), "", "", "")
	f.Add("u\xe2\x80\xa8", "r\xff", 0.25, uint8(2), "v\x00", "tr", "comp\"x")
	f.Add("u", "r", 1.0, uint8(3), "", "t", "")
	f.Fuzz(func(t *testing.T, uri, repo string, score float64, kind uint8, text, trace, component string) {
		if math.IsNaN(score) || math.IsInf(score, 0) {
			t.Skip("non-finite scores are the sink's to refuse")
		}
		it := &Item{Page: core.NewPageLazy(uri, ""), Repo: repo, Score: score}
		switch kind % 4 {
		case 0:
			it.Err = errors.New(text)
		case 1:
			el := extract.NewElement("page")
			el.SetAttr("uri", uri)
			el.Add(extract.NewElement("title")).Text = text
			el.Add(extract.NewElement(component)).Text = text
			el.Add(extract.NewElement(component)).Text = trace
			it.Element = el
		case 2:
			it.Element = extract.NewElement("leaf")
			it.Element.Text = text
			it.Failures = []extract.Failure{
				{PageURI: uri, Component: component, Kind: extract.FailureMissingMandatory, Detail: text},
				{PageURI: uri, Component: text, Kind: extract.FailureMultipleValues, Detail: repo},
			}
		case 3:
			it.Page = nil
			it.Failures = []extract.Failure{{PageURI: uri, Component: component, Kind: extract.FailureKind(int(kind))}}
		}
		resultLineMatches(t, it, trace)
	})
}

// TestWireCodecMatchesCorpus runs the realistic stream through both
// directions: every page line decodes as json.Unmarshal decodes it, and
// every result line encodes as json.Encoder encodes it.
func TestWireCodecMatchesCorpus(t *testing.T) {
	fx := loadWireFixture(t)
	var d pageLineDecoder
	for _, line := range fx.lines {
		decodeMatches(t, &d, line)
	}
	for _, it := range fx.items {
		resultLineMatches(t, it, "0123456789abcdef0123456789abcdef")
	}
}

// TestNDJSONSinkNonFiniteScore: a NaN or infinite score fails the line
// with encoding/json's error and writes nothing, as json.Encoder did.
func TestNDJSONSinkNonFiniteScore(t *testing.T) {
	for _, score := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		it := &Item{Page: core.NewPageLazy("u", ""), Repo: "r", Score: score}
		want := json.NewEncoder(&bytes.Buffer{}).Encode(MakeResultLine(it))
		var out bytes.Buffer
		err := NewNDJSONSink(&out).Emit(it)
		if err == nil || want == nil || err.Error() != want.Error() || out.Len() != 0 {
			t.Errorf("score %v: err %v (wrote %d bytes), json.Encoder err %v", score, err, out.Len(), want)
		}
	}
}

// TestPageLineDecodeAllocs pins the decoder's budget: a canonical line
// costs its two strings, escapes included once the scratch is warm.
func TestPageLineDecodeAllocs(t *testing.T) {
	line := loadWireFixture(t).lines[0]
	if !bytes.Contains(line, []byte(bs+"u003c")) {
		t.Fatalf("fixture line carries no HTML escapes: %.80s", line)
	}
	var d pageLineDecoder
	var out PageLine
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.decode(line, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("decode = %.1f allocs/line, want ≤ 2 (uri and html)", allocs)
	}
}

// TestResultLineEncodeAllocs pins the warm encoder: a routed record with
// no failures encodes into a reused buffer without allocating.
func TestResultLineEncodeAllocs(t *testing.T) {
	fx := loadWireFixture(t)
	var it *Item
	for _, cand := range fx.items {
		if cand.Err == nil && cand.Element != nil && len(cand.Failures) == 0 {
			it = cand
			break
		}
	}
	if it == nil {
		t.Fatal("fixture has no clean record")
	}
	buf := AppendResultLine(nil, it, "trace")
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendResultLine(buf[:0], it, "trace")
	})
	if allocs > 0 {
		t.Errorf("warm AppendResultLine = %.1f allocs/line, want 0", allocs)
	}
}

// TestPageLineDecoderScratchCap: a huge escaped line may grow the unescape
// buffer, but the decoder must not keep more than 1 MiB of it pinned.
func TestPageLineDecoderScratchCap(t *testing.T) {
	huge, err := json.Marshal(PageLine{URI: "u", HTML: strings.Repeat("<p>", maxRetainedScratch/2)})
	if err != nil {
		t.Fatal(err)
	}
	var d pageLineDecoder
	decodeMatches(t, &d, huge)
	if c := cap(d.scratch); c > maxRetainedScratch {
		t.Errorf("scratch keeps %d bytes after a huge line, cap is %d", c, maxRetainedScratch)
	}
	decodeMatches(t, &d, []byte(`{"uri":"u","html":"`+bs+`u003cp"}`))
	if c := cap(d.scratch); c == 0 || c > maxRetainedScratch {
		t.Errorf("scratch cap %d after a small escaped line", c)
	}
}

// BenchmarkNDJSONDecode is the pipeline.ndjson_decode layer: one page
// line of the movies+books stream to a PageLine, against the
// encoding/json baseline it replaced.
func BenchmarkNDJSONDecode(b *testing.B) {
	lines := loadWireFixture(b).lines
	var size int64
	for _, l := range lines {
		size += int64(len(l))
	}
	b.Run("codec", func(b *testing.B) {
		var d pageLineDecoder
		var out PageLine
		b.SetBytes(size / int64(len(lines)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := d.decode(lines[i%len(lines)], &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(size / int64(len(lines)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out PageLine
			if err := json.Unmarshal(lines[i%len(lines)], &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResultLineEncode is the pipeline.encode layer: one routed
// result item to its NDJSON line, against the json.Encoder baseline it
// replaced.
func BenchmarkResultLineEncode(b *testing.B) {
	items := loadWireFixture(b).items
	const trace = "0123456789abcdef0123456789abcdef"
	b.Run("codec", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendResultLine(buf[:0], items[i%len(items)], trace)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			line := MakeResultLine(items[i%len(items)])
			line.Trace = trace
			if err := enc.Encode(line); err != nil {
				b.Fatal(err)
			}
		}
	})
}
