package extract

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/rule"
)

// diffRepos builds the processors the differential suite runs: one
// stream-eligible repository exercising every automaton shape (exact
// positions, descendant steps, position ranges, contextual needles,
// element captures, whole-body capture, multi-location priority, a dead
// location, mandatory and single-valued failure detection), and one
// general-XPath repository that must take the DOM fallback.
func diffRepos(t testing.TB) map[string]*Processor {
	t.Helper()
	mk := func(cluster string, rules ...rule.Rule) *Processor {
		repo := rule.NewRepository(cluster)
		for _, r := range rules {
			if err := repo.Record(r); err != nil {
				t.Fatalf("record %s/%s: %v", cluster, r.Name, err)
			}
		}
		proc, err := NewProcessor(repo)
		if err != nil {
			t.Fatalf("compile %s: %v", cluster, err)
		}
		return proc
	}
	eligible := mk("fuzzstream",
		rule.Rule{Name: "title", Optionality: rule.Mandatory, Multiplicity: rule.SingleValued,
			Format: rule.Text, Locations: []string{"BODY[1]/H1[1]/text()[1]"}},
		rule.Rule{Name: "runtime", Optionality: rule.Optional, Multiplicity: rule.SingleValued,
			Format: rule.Text, Locations: []string{"BODY//text()[preceding::text()[1][contains(., 'Runtime:')]]"}},
		rule.Rule{Name: "links", Optionality: rule.Optional, Multiplicity: rule.Multivalued,
			Format: rule.Text, Locations: []string{"BODY[1]/P[1]/A[position()>=1]/text()[1]"}},
		rule.Rule{Name: "trivia", Optionality: rule.Optional, Multiplicity: rule.Multivalued,
			Format: rule.Text, Locations: []string{"BODY//DIV/DIV[preceding::text()[1][contains(., 'Trivia')]]"}},
		rule.Rule{Name: "deep", Optionality: rule.Optional, Multiplicity: rule.Multivalued,
			Format: rule.Text, Locations: []string{"BODY//DIV//SPAN/text()[1]"}},
		rule.Rule{Name: "whole", Optionality: rule.Optional, Multiplicity: rule.SingleValued,
			Format: rule.Text, Locations: []string{"BODY[1]"}},
		rule.Rule{Name: "pick", Optionality: rule.Optional, Multiplicity: rule.SingleValued,
			Format: rule.Text, Locations: []string{"BODY[1]/H2[1]/text()[1]", "BODY[1]/H1[1]/text()[1]"}},
		rule.Rule{Name: "dead", Optionality: rule.Mandatory, Multiplicity: rule.SingleValued,
			Format: rule.Text, Locations: []string{"BODY[2]/H1[1]/text()[1]"}},
	)
	if eligible.stream == nil {
		t.Fatalf("fuzzstream repo not stream-eligible: %s", eligible.streamReason)
	}
	general := mk("fuzzgeneral",
		rule.Rule{Name: "title", Optionality: rule.Mandatory, Multiplicity: rule.SingleValued,
			Format: rule.Text, Locations: []string{"//H1/text()"}},
	)
	if general.stream != nil {
		t.Fatal("fuzzgeneral repo unexpectedly stream-eligible")
	}
	return map[string]*Processor{"stream": eligible, "general": general}
}

// renderXML renders the aggregate page element for byte comparison.
func renderXML(t testing.TB, el *Element) string {
	t.Helper()
	var buf bytes.Buffer
	if err := el.WriteXML(&buf); err != nil {
		t.Fatalf("WriteXML: %v", err)
	}
	return buf.String()
}

// diffOnePage runs one processor over one page both ways — lazy (stream
// path when eligible) and pre-parsed (DOM path) — and requires
// byte-identical results: values, failures, and the aggregate XML.
func diffOnePage(t testing.TB, name string, proc *Processor, uri, html string) {
	t.Helper()
	elS, valS, failS, infoS := proc.ExtractPageValuesInfo(core.NewPageLazy(uri, html))
	elD, valD, failD, infoD := proc.ExtractPageValuesInfo(core.NewPage(uri, html))
	if infoD.Hit {
		t.Fatalf("%s: pre-parsed page took the stream path", name)
	}
	if !reflect.DeepEqual(valS, valD) {
		t.Errorf("%s on %q: values diverge (stream hit=%v reason=%q)\n  stream %v\n  dom    %v",
			name, html, infoS.Hit, infoS.Reason, valS, valD)
	}
	if !reflect.DeepEqual(failS, failD) {
		t.Errorf("%s on %q: failures diverge\n  stream %v\n  dom    %v", name, html, failS, failD)
	}
	if xs, xd := renderXML(t, elS), renderXML(t, elD); xs != xd {
		t.Errorf("%s on %q: aggregate XML diverges\n  stream %s\n  dom    %s", name, html, xs, xd)
	}
}

// streamFuzzSeeds is the committed seed corpus for FuzzStreamExtract.
// Plain `go test` (and CI with it) runs every seed through the
// differential check, so the corpus doubles as an always-on regression
// suite; `go test -fuzz=FuzzStreamExtract ./internal/extract` mutates
// from here.
var streamFuzzSeeds = []string{
	// Shapes every rule in the eligible repo can hit.
	`<html><head><title>T</title></head><body><h1>Title</h1><p><a href=x>one</a><a>two</a></p></body></html>`,
	`<body><h1>A&amp;B</h1><div>Runtime: <b>x</b>108 min</div><div>DVD</div></body>`,
	`<body><div><div>Trivia</div><div>fact one</div></div><div><div>other</div></div></body>`,
	`<body><div>Trivia</div><div><div>deep<span>s1</span></div><span>s2</span></div></body>`,
	`<body><h1>x</h1><h2>y</h2><p>t<a>a1</a>mid<a>a2</a><a>a3</a></p></body>`,
	// Failure triggers: missing mandatory title, multiple single-valued
	// runtime hits.
	`<body><p>no title here</p></body>`,
	`<body><p>Runtime:</p><p>108 min</p><p>Runtime:</p><p>92 min</p></body>`,
	// Whitespace, entities, raw text, tables with implied end tags.
	`<body><pre>  keep  </pre><div> </div><h1> spaced </h1></body>`,
	`<body><div>Runtime: </div> <i>ital</i> 108&nbsp;min</body>`,
	`<body><script>var x = "<h1>not</h1>";</script><h1>real</h1></body>`,
	`<body><table><tr><td>c1<td>c2<tr><td>c3</table></body>`,
	`<body><ul><li>one<li>two<li>three</ul></body>`,
	// Implicit body, head routing, empty and degenerate markup.
	`<h1>implicit body</h1><p>tail`,
	`<title>early</title><meta x><h1>after head</h1>`,
	``, `plain text only`, `<body><h1></h1><p></p></body>`,
	// Truncated and hostile markup from the parser fuzz corpus.
	"<", "</", "<!", "<!--", "<!-- unterminated", `<a href="x`,
	"</td></td></table>", "<b><i>bold-italic</b></i>",
	"&amp; &lt; &#65; &#x41; &unknown; &#; &", "a&b<c&d>",
	"\x00\x01\x02", "<p>\x80\xff</p>", "<\xc3\x28>",
	"<DiV><SpAn>mixed</sPaN></dIv>",
	// Deep nesting past the automaton's depth bound: the stream path must
	// bail and the fallback must still agree byte-for-byte.
	strings.Repeat("<div>", 200) + "<span>deep</span>",
	strings.Repeat("<p>x", 100),
}

// FuzzStreamExtract is the differential guarantee of the streaming
// extractor: for arbitrary byte soup, extracting through the token-stream
// automaton and through parse+DOM must produce byte-identical results —
// the same component values, the same detected failures, the same
// aggregate XML. The general-XPath processor rides along to pin the
// fallback plumbing.
func FuzzStreamExtract(f *testing.F) {
	for _, s := range streamFuzzSeeds {
		f.Add(s)
	}
	procs := diffRepos(f)
	f.Fuzz(func(t *testing.T, html string) {
		if len(html) > 1<<16 {
			t.Skip("bounded input size")
		}
		for name, proc := range procs {
			diffOnePage(t, name, proc, "fuzz://page", html)
		}
	})
}

// TestStreamDifferentialCorpus locks the differential guarantee on
// realistic traffic: rules induced from each synthetic site family must
// (a) compile to the streaming automaton — the fast path carries real
// induced repositories, not just hand-picked shapes — and (b) agree
// byte-for-byte with the DOM path on every page of the cluster.
func TestStreamDifferentialCorpus(t *testing.T) {
	clusters := []*corpus.Cluster{
		corpus.GenerateMovies(corpus.DefaultMovieProfile(21, 12)),
		corpus.GenerateBooks(corpus.DefaultBookProfile(5, 10)),
		corpus.GenerateStocks(corpus.DefaultStockProfile(9, 10)),
		corpus.GenerateForum(corpus.DefaultForumProfile(13, 10)),
	}
	for _, cl := range clusters {
		sample, _ := cl.RepresentativeSplit(6)
		builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
		repo := rule.NewRepository(cl.Name)
		if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
			t.Fatalf("%s: induction: %v", cl.Name, err)
		}
		if len(repo.Rules) == 0 {
			t.Fatalf("%s: no rules induced", cl.Name)
		}
		proc, err := NewProcessor(repo)
		if err != nil {
			t.Fatal(err)
		}
		if proc.stream == nil {
			t.Fatalf("%s: induced repository not stream-eligible: %s", cl.Name, proc.streamReason)
		}
		for i, p := range cl.Pages {
			uri := fmt.Sprintf("http://%s.example/p%d", cl.Name, i)
			html := dom.Render(p.Doc)
			diffOnePage(t, cl.Name, proc, uri, html)
			// And the public raw-HTML entry point takes the fast path.
			if _, _, info := proc.ExtractPageStream(uri, html); !info.Hit {
				t.Fatalf("%s page %d: ExtractPageStream fell back: %s", cl.Name, i, info.Reason)
			}
		}
	}
}
