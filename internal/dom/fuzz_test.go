package dom

import (
	"strings"
	"testing"
)

// fuzzSeeds is the seeded regression corpus for FuzzParse. Plain
// `go test` runs every seed through the fuzz function, so the corpus
// doubles as an always-on regression suite for the parser's nastiest
// known inputs; `go test -fuzz=FuzzParse` mutates from here.
var fuzzSeeds = []string{
	// Well-formed baseline.
	"<html><head><title>t</title></head><body><p>hello</p></body></html>",
	`<table><tr><td><b>Runtime:</b> 108 min <br></td></tr></table>`,
	`<div class="a" data-x="1&amp;2"><span>x</span> tail</div>`,
	// Truncated and degenerate markup.
	"", "<", ">", "</", "<>", "<!", "<!--", "<!-- unterminated",
	"<a", "<a href", `<a href="`, `<a href="x`,
	// Mis-nesting and stray close tags.
	"</td></td></table>", "<b><i>bold-italic</b></i>", "<p>a<p>b</p></p>",
	"<td>no table</td>", "<li>stray item",
	// Auto-closing interactions.
	"<table><tr><td>a<td>b<tr><td>c</table>",
	"<ul><li>1<li>2<li>3</ul>", "<dl><dt>t<dd>d<dt>t2</dl>",
	"<table><table><table>", "<table><tr><td><table><tr><td>inner</table>outer</table>",
	// Head/body placement.
	"<title>early</title><meta x><p>body starts</p>",
	"<link href=x><style>s</style>text",
	// Void elements and raw-text elements.
	"<br/><hr><img src=x><input value='v'>",
	"<script>if (a < b) { x(); }</script><p>after</p>",
	"<script><div></script><div>",
	// Entities, good and broken.
	"&amp; &lt; &gt; &#65; &#x41; &unknown; &#; &#x; &", "&amp", "a&b<c&d>",
	// Attribute soup.
	`<a b=c d='e" f>g</a>`, `<a a1 a2= a3="x" a4='y' a5=z>t</a>`,
	"<div data-quote='\"'>q</div>",
	// Control bytes and non-UTF8.
	"\x00\x01\x02", "<p>\x80\xff</p>", "<\xc3\x28>",
	// Pathological depth and repetition (kept small for seed speed).
	strings.Repeat("<div>", 200), strings.Repeat("</span>", 50),
	strings.Repeat("<p>x", 100),
	// Comments and bogus declarations.
	"<!doctype html><p>x</p>", "<!-- <p>not a tag</p> --><p>real</p>",
	"<?php echo ?><p>x</p>",
	// Case handling.
	"<DiV><SpAn>mixed</sPaN></dIv>",
	// Regression: invalid UTF-8 inside a raw-text element once
	// desynchronized the close-tag scan (ToLower widened \x87 into a
	// replacement rune, shifting byte offsets).
	"<title>\x870", "<title>\x870</title><p>after</p>",
	"<script>\xc2</script><b>x</b>", "<TEXTAREA>\xff</TEXTAREA>",
}

// FuzzParse asserts the parser's contract on arbitrary byte soup: it
// never panics, always yields a structurally valid tree under the
// synthesized HTML > (HEAD, BODY) skeleton, the tree renders, and the
// rendered form re-parses to the same tree (the invariant the corpus
// pipeline and the live site server lean on). The trees are compared
// node by node: comparing rendered strings would miss a render that
// reads back as a different tree with the same rendering.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("bounded input size")
		}
		doc := Parse(src)
		if !validTree(t, doc) {
			t.Fatalf("invalid tree for %q", src)
		}
		assertSkeleton(t, doc, src)

		rendered := Render(doc)
		doc2 := Parse(rendered)
		if !validTree(t, doc2) {
			t.Fatalf("reparse produced invalid tree for %q", src)
		}
		assertSkeleton(t, doc2, rendered)
		if !treesIsomorphic(doc, doc2) {
			t.Fatalf("render/parse changed the tree for %q:\nrendered %q\nreparsed %q",
				src, rendered, Render(doc2))
		}
	})
}

// assertSkeleton checks the synthesized document frame: a document node
// whose single element child is HTML (a doctype may precede it), holding
// HEAD then BODY.
func assertSkeleton(t *testing.T, doc *Node, src string) {
	t.Helper()
	if doc.Type != DocumentNode {
		t.Fatalf("root is %v, not a document (input %q)", doc.Type, src)
	}
	var html *Node
	for c := doc.FirstChild; c != nil; c = c.NextSibling {
		switch {
		case c.Type == DoctypeNode:
		case c.TagIs("HTML") && html == nil:
			html = c
		default:
			t.Fatalf("unexpected document-level node %v %q (input %q)", c.Type, c.Data, src)
		}
	}
	if html == nil {
		t.Fatalf("no HTML element under the document (input %q)", src)
	}
	head := html.FirstChild
	if head == nil || !head.TagIs("HEAD") {
		t.Fatalf("first HTML child is not HEAD (input %q)", src)
	}
	body := head.NextSibling
	if body == nil || !body.TagIs("BODY") {
		t.Fatalf("second HTML child is not BODY (input %q)", src)
	}
}
