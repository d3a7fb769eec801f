package streamx

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
)

// fingerprintFuzzSeeds is the committed seed corpus for
// FuzzFingerprintVsDOM: the hostile shapes of the dom parser's FuzzParse
// corpus and the extractor's FuzzStreamExtract corpus, plus attribute
// shapes (duplicates, skeleton merges, entity-encoded values, keys that
// change length when lower-cased). Corpus pages are added in
// fingerprintSeedPages.
var fingerprintFuzzSeeds = []string{
	// Well-formed baseline.
	"<html><head><title>t</title></head><body><p>hello</p></body></html>",
	`<table><tr><td><b>Runtime:</b> 108 min <br></td></tr></table>`,
	`<div class="a" data-x="1&amp;2"><span>x</span> tail</div>`,
	// Truncated and degenerate markup.
	"", "<", ">", "</", "<>", "<!", "<!--", "<!-- unterminated",
	"<a", "<a href", `<a href="`, `<a href="x`,
	// Mis-nesting, stray close tags, auto-closing.
	"</td></td></table>", "<b><i>bold-italic</b></i>", "<p>a<p>b</p></p>",
	"<table><tr><td>a<td>b<tr><td>c</table>", "<ul><li>1<li>2<li>3</ul>",
	"<table><tr><td><table><tr><td>inner</table>outer</table>",
	// Head/body placement, raw text, whitespace.
	"<title>early</title><meta x><p>body starts</p>",
	// Self-closed TITLE/STYLE never enter raw-text mode, so what follows
	// nests inside HEAD and its text does not start the body.
	"<title/><A", "<title/><style>t</style></title><meta x><p>b", "<style/><b>x</b><link>",
	"<link href=x><style>s</style>text",
	"<script>if (a < b) { x(); }</script><p>after</p>",
	`<body><pre>  keep  </pre><div> </div><h1> spaced </h1></body>`,
	`<body><div>Runtime: </div> <i>ital</i> 108&nbsp;min</body>`,
	// Entities, control bytes, invalid UTF-8.
	"&amp; &lt; &gt; &#65; &#x41; &unknown; &#; &#x; &", "a&b<c&d>",
	"\x00\x01\x02", "<p>\x80\xff</p>", "<\xc3\x28>",
	"<title>\x870</title><p>after</p>", "<TEXTAREA>\xff</TEXTAREA>",
	// Comments, doctypes, bogus declarations, case.
	"<!doctype html><p>x</p>", "<!-- <p>not a tag</p> --><p>real</p>",
	"<?php echo ?><p>x</p>", "<DiV><SpAn>mixed</sPaN></dIv>",
	// Depth and repetition.
	strings.Repeat("<div>", 200) + "<span>deep</span>", strings.Repeat("<p>x", 100),
	// Attribute accounting.
	`<a b=c d='e" f>g</a>`, `<a a1 a2= a3="x" a4='y' a5=z>t</a>`,
	`<a href=1 href=2 HREF="three">dup</a>`,
	`<html lang=en><body class=a><html LANG=fr data-x><body CLASS="b&amp;c" id=z>t</body>`,
	`<head profile=x><body><p title="&lt;&#x41;&bogus;">v</p>`,
	"<p \u0130D=1 \u023a=2 \xff=3 \xc3=4>keys</p>", "<body \u0130=1 \u0130=22>k</body>",
	`<img src="x"/><br clear=all><input value='v' disabled>`,
}

// fingerprintSeedPages returns the seed corpus plus rendered pages of
// every synthetic site family.
func fingerprintSeedPages() []string {
	seeds := append([]string(nil), fingerprintFuzzSeeds...)
	for _, cl := range []*corpus.Cluster{
		corpus.GenerateMovies(corpus.DefaultMovieProfile(3, 2)),
		corpus.GenerateBooks(corpus.DefaultBookProfile(5, 2)),
		corpus.GenerateStocks(corpus.DefaultStockProfile(9, 2)),
		corpus.GenerateForum(corpus.DefaultForumProfile(13, 2)),
	} {
		for _, p := range cl.Pages {
			seeds = append(seeds, dom.Render(p.Doc))
		}
	}
	return seeds
}

// checkFingerprintVsDOM asserts the equivalence the tree-free capture
// path rests on: one token pass yields the features a parse-based capture
// computes from dom.Parse(src).
func checkFingerprintVsDOM(t *testing.T, uri, src string) {
	t.Helper()
	want := cluster.Fingerprint(cluster.PageInfo{URI: uri, Doc: dom.Parse(src)})
	if got := Fingerprint(uri, src); !reflect.DeepEqual(got, want) {
		t.Fatalf("features differ for %q:\n got %+v\nwant %+v", src, got, want)
	}
}

// FuzzFingerprintVsDOM: for arbitrary byte soup, the stream features
// equal cluster.Fingerprint over the parsed document.
func FuzzFingerprintVsDOM(f *testing.F) {
	for _, s := range fingerprintSeedPages() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("bounded input size")
		}
		checkFingerprintVsDOM(t, "http://fuzz.example/p/1", src)
	})
}

// TestFingerprintPage covers both representations: an unparsed lazy page
// streams (and stays unparsed), a parsed page uses its tree, and the two
// agree.
func TestFingerprintPage(t *testing.T) {
	for i, src := range fingerprintSeedPages() {
		uri := fmt.Sprintf("http://site.example/p/%d", i)
		lazy := core.NewPageLazy(uri, src)
		fl := FingerprintPage(lazy)
		if lazy.Doc != nil {
			t.Fatalf("seed %d: FingerprintPage parsed a lazy page", i)
		}
		if ft := FingerprintPage(core.NewPage(uri, src)); !reflect.DeepEqual(fl, ft) {
			t.Fatalf("seed %d: lazy and parsed pages disagree", i)
		}
	}
}
