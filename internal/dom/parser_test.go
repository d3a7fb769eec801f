package dom

import (
	"strings"
	"testing"
)

func TestParseSimpleDocument(t *testing.T) {
	doc := Parse(`<html><head><title>Movie</title></head><body><h1>Hello</h1></body></html>`)
	body := Body(doc)
	if body == nil {
		t.Fatal("no BODY in parsed document")
	}
	h1 := FindFirst(doc, func(n *Node) bool { return n.TagIs("h1") })
	if h1 == nil {
		t.Fatal("H1 not found")
	}
	if got := TextContent(h1); got != "Hello" {
		t.Errorf("H1 text = %q, want %q", got, "Hello")
	}
	title := FindFirst(doc, func(n *Node) bool { return n.TagIs("title") })
	if title == nil {
		t.Fatal("TITLE not found")
	}
	if title.Parent == nil || !title.Parent.TagIs("head") {
		t.Errorf("TITLE parent = %v, want HEAD", title.Parent)
	}
}

func TestParseSynthesizesSkeleton(t *testing.T) {
	doc := Parse(`just text`)
	body := Body(doc)
	if body == nil {
		t.Fatal("no BODY synthesized")
	}
	if got := TextContent(body); got != "just text" {
		t.Errorf("body text = %q", got)
	}
}

func TestParseHeadRouting(t *testing.T) {
	doc := Parse(`<title>T</title><meta charset="utf-8"><p>content</p><meta name="late">`)
	head := FindFirst(doc, func(n *Node) bool { return n.TagIs("head") })
	if head == nil {
		t.Fatal("no HEAD")
	}
	if len(FindAll(head, func(n *Node) bool { return n.TagIs("meta") })) != 1 {
		t.Errorf("want exactly 1 META in HEAD (the early one)")
	}
	body := Body(doc)
	if len(FindAll(body, func(n *Node) bool { return n.TagIs("meta") })) != 1 {
		t.Errorf("want the late META in BODY")
	}
}

func TestAutoCloseTableCells(t *testing.T) {
	doc := Parse(`<table><tr><td>a<td>b<tr><td>c</table>`)
	trs := FindAll(doc, func(n *Node) bool { return n.TagIs("tr") })
	if len(trs) != 2 {
		t.Fatalf("got %d TRs, want 2", len(trs))
	}
	tds0 := FindAll(trs[0], func(n *Node) bool { return n.TagIs("td") })
	if len(tds0) != 2 {
		t.Fatalf("row 0 has %d TDs, want 2", len(tds0))
	}
	if TextContent(tds0[0]) != "a" || TextContent(tds0[1]) != "b" {
		t.Errorf("row 0 cells = %q, %q", TextContent(tds0[0]), TextContent(tds0[1]))
	}
	tds1 := FindAll(trs[1], func(n *Node) bool { return n.TagIs("td") })
	if len(tds1) != 1 || TextContent(tds1[0]) != "c" {
		t.Errorf("row 1 wrong: %v", tds1)
	}
}

func TestNestedTableScope(t *testing.T) {
	doc := Parse(`<table><tr><td><table><tr><td>inner</td></tr></table>outer-tail</td></tr></table>`)
	tables := FindAll(doc, func(n *Node) bool { return n.TagIs("table") })
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want 2", len(tables))
	}
	outerTD := FindFirst(tables[0], func(n *Node) bool { return n.TagIs("td") })
	if !strings.Contains(TextContent(outerTD), "outer-tail") {
		t.Errorf("inner </td> must not close outer TD; outer TD text = %q", TextContent(outerTD))
	}
}

func TestAutoCloseLI(t *testing.T) {
	doc := Parse(`<ul><li>one<li>two<li>three</ul>`)
	lis := FindAll(doc, func(n *Node) bool { return n.TagIs("li") })
	if len(lis) != 3 {
		t.Fatalf("got %d LIs, want 3", len(lis))
	}
	for i, want := range []string{"one", "two", "three"} {
		if got := strings.TrimSpace(TextContent(lis[i])); got != want {
			t.Errorf("li[%d] = %q, want %q", i, got, want)
		}
	}
}

func TestAutoCloseP(t *testing.T) {
	doc := Parse(`<p>first<p>second<div>block</div>`)
	ps := FindAll(doc, func(n *Node) bool { return n.TagIs("p") })
	if len(ps) != 2 {
		t.Fatalf("got %d Ps, want 2", len(ps))
	}
	if ps[0].Parent != ps[1].Parent {
		t.Error("second <p> should be a sibling of the first, not nested")
	}
}

func TestVoidElements(t *testing.T) {
	doc := Parse(`<p>line<br>next<img src="x.png">tail</p>`)
	br := FindFirst(doc, func(n *Node) bool { return n.TagIs("br") })
	if br == nil {
		t.Fatal("no BR")
	}
	if br.FirstChild != nil {
		t.Error("BR must not have children")
	}
	p := FindFirst(doc, func(n *Node) bool { return n.TagIs("p") })
	if got := TextContent(p); got != "linenexttail" {
		t.Errorf("p text = %q", got)
	}
}

func TestStrayEndTagIgnored(t *testing.T) {
	doc := Parse(`<div>a</span>b</div>`)
	div := FindFirst(doc, func(n *Node) bool { return n.TagIs("div") })
	if got := TextContent(div); got != "ab" {
		t.Errorf("div text = %q, want ab", got)
	}
}

func TestUnclosedTagsRunToEnd(t *testing.T) {
	doc := Parse(`<div><b>bold<i>both`)
	b := FindFirst(doc, func(n *Node) bool { return n.TagIs("b") })
	if b == nil {
		t.Fatal("no B")
	}
	if got := TextContent(b); got != "boldboth" {
		t.Errorf("b text = %q", got)
	}
}

func TestAttributes(t *testing.T) {
	doc := Parse(`<a href="http://x.test/p?q=1&amp;r=2" Class=link data-x id='seven'>go</a>`)
	a := FindFirst(doc, func(n *Node) bool { return n.TagIs("a") })
	if a == nil {
		t.Fatal("no A")
	}
	if v, _ := a.AttrVal("href"); v != "http://x.test/p?q=1&r=2" {
		t.Errorf("href = %q (entity decoding in attr)", v)
	}
	if v, _ := a.AttrVal("class"); v != "link" {
		t.Errorf("class = %q (unquoted value, case-folded key)", v)
	}
	if v, ok := a.AttrVal("data-x"); !ok || v != "" {
		t.Errorf("data-x = %q,%v (valueless attribute)", v, ok)
	}
	if v, _ := a.AttrVal("id"); v != "seven" {
		t.Errorf("id = %q (single-quoted value)", v)
	}
}

func TestEntityDecodingInText(t *testing.T) {
	doc := Parse(`<p>Tom &amp; Jerry &lt;3 &#65;&#x42; &nbsp;&unknown; &copy;</p>`)
	p := FindFirst(doc, func(n *Node) bool { return n.TagIs("p") })
	got := TextContent(p)
	want := "Tom & Jerry <3 AB  &unknown; ©"
	if got != want {
		t.Errorf("text = %q, want %q", got, want)
	}
}

func TestScriptRawText(t *testing.T) {
	doc := Parse(`<body><script>if (a < b) { x = "<td>"; }</script><p>after</p></body>`)
	s := FindFirst(doc, func(n *Node) bool { return n.TagIs("script") })
	if s == nil {
		t.Fatal("no SCRIPT")
	}
	if got := TextContent(s); !strings.Contains(got, `x = "<td>"`) {
		t.Errorf("script content mangled: %q", got)
	}
	if td := FindFirst(doc, func(n *Node) bool { return n.TagIs("td") }); td != nil {
		t.Error("markup inside <script> must not create elements")
	}
	if p := FindFirst(doc, func(n *Node) bool { return n.TagIs("p") }); p == nil {
		t.Error("parsing must resume after </script>")
	}
}

func TestComments(t *testing.T) {
	doc := Parse(`<div><!-- hidden <b>not bold</b> -->shown</div>`)
	c := FindFirst(doc, func(n *Node) bool { return n.Type == CommentNode })
	if c == nil {
		t.Fatal("comment lost")
	}
	if !strings.Contains(c.Data, "not bold") {
		t.Errorf("comment data = %q", c.Data)
	}
	if b := FindFirst(doc, func(n *Node) bool { return n.TagIs("b") }); b != nil {
		t.Error("tags inside comments must not create elements")
	}
}

func TestDoctypePreserved(t *testing.T) {
	doc := Parse(`<!DOCTYPE html><html><body>x</body></html>`)
	if doc.FirstChild == nil || doc.FirstChild.Type != DoctypeNode {
		t.Error("doctype should be the first document child")
	}
}

func TestElementIndex(t *testing.T) {
	doc := Parse(`<div><span>a</span><p>x</p><span>b</span><span>c</span></div>`)
	spans := FindAll(doc, func(n *Node) bool { return n.TagIs("span") })
	if len(spans) != 3 {
		t.Fatal("want 3 spans")
	}
	for i, want := range []int{1, 2, 3} {
		if got := spans[i].ElementIndex(); got != want {
			t.Errorf("span %d index = %d, want %d", i, got, want)
		}
	}
	p := FindFirst(doc, func(n *Node) bool { return n.TagIs("p") })
	if got := p.ElementIndex(); got != 1 {
		t.Errorf("p index = %d, want 1 (same-tag siblings only)", got)
	}
}

func TestTextIndex(t *testing.T) {
	body := FindFirst(Parse(`<table><tr><td>alpha<b>bold</b>beta<br>gamma`), func(n *Node) bool { return n.TagIs("TD") })
	var texts []*Node
	for c := body.FirstChild; c != nil; c = c.NextSibling {
		if c.Type == TextNode {
			texts = append(texts, c)
		}
	}
	if len(texts) != 3 {
		t.Fatalf("want 3 direct text children, got %d", len(texts))
	}
	for i, want := range []int{1, 2, 3} {
		if got := texts[i].TextIndex(); got != want {
			t.Errorf("text %d index = %d, want %d", i, got, want)
		}
	}
}

func TestCompareDocumentOrder(t *testing.T) {
	doc := Parse(`<div><p>a</p><p>b<i>c</i></p></div>`)
	ps := FindAll(doc, func(n *Node) bool { return n.TagIs("p") })
	i := FindFirst(doc, func(n *Node) bool { return n.TagIs("i") })
	div := FindFirst(doc, func(n *Node) bool { return n.TagIs("div") })
	cases := []struct {
		a, b *Node
		want int
		desc string
	}{
		{ps[0], ps[1], -1, "sibling order"},
		{ps[1], ps[0], 1, "sibling order reversed"},
		{div, i, -1, "ancestor precedes descendant"},
		{i, div, 1, "descendant follows ancestor"},
		{ps[0], i, -1, "cross-subtree"},
		{i, i, 0, "identity"},
	}
	for _, c := range cases {
		if got := CompareDocumentOrder(c.a, c.b); got != c.want {
			t.Errorf("%s: got %d, want %d", c.desc, got, c.want)
		}
	}
}

func TestRenderRoundTrip(t *testing.T) {
	srcs := []string{
		`<html><body><table><tr><td>a</td><td>b &amp; c</td></tr></table></body></html>`,
		`<div class="x"><p>one<p>two<ul><li>i<li>ii</ul></div>`,
		`<b>Runtime:</b> 108 min <br><b>Country:</b> USA`,
	}
	for _, src := range srcs {
		d1 := Parse(src)
		out := Render(d1)
		d2 := Parse(out)
		if !treesIsomorphic(Body(d1), Body(d2)) {
			t.Errorf("round-trip changed tree for %q:\nfirst:  %s\nsecond: %s",
				src, Render(Body(d1)), Render(Body(d2)))
		}
	}
}

// treesIsomorphic compares structure, tags, attrs and text.
func treesIsomorphic(a, b *Node) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Type != b.Type || a.Data != b.Data || len(a.Attr) != len(b.Attr) {
		return false
	}
	for i := range a.Attr {
		if a.Attr[i] != b.Attr[i] {
			return false
		}
	}
	ca, cb := a.Children(), b.Children()
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if !treesIsomorphic(ca[i], cb[i]) {
			return false
		}
	}
	return true
}

func TestClone(t *testing.T) {
	doc := Parse(`<div id="d"><p>x</p></div>`)
	div := FindFirst(doc, func(n *Node) bool { return n.TagIs("div") })
	c := div.Clone()
	if c.Parent != nil {
		t.Error("clone must be detached")
	}
	if !treesIsomorphic(div, c) {
		t.Error("clone not isomorphic")
	}
	c.FirstChild.Data = "Q"
	if div.FirstChild.Data == "Q" {
		t.Error("clone shares nodes with original")
	}
}

func TestTreeMutation(t *testing.T) {
	parent := NewElement("div")
	a, b, c := NewText("a"), NewText("b"), NewText("c")
	parent.AppendChild(a)
	parent.AppendChild(c)
	parent.InsertBefore(b, c)
	if got := TextContent(parent); got != "abc" {
		t.Fatalf("after insert: %q", got)
	}
	parent.RemoveChild(b)
	if got := TextContent(parent); got != "ac" {
		t.Fatalf("after remove: %q", got)
	}
	if b.Parent != nil || b.PrevSibling != nil || b.NextSibling != nil {
		t.Error("removed node not fully detached")
	}
	parent.RemoveChild(a)
	parent.RemoveChild(c)
	if parent.FirstChild != nil || parent.LastChild != nil {
		t.Error("parent not empty after removing all children")
	}
}

func TestTagPaths(t *testing.T) {
	doc := Parse(`<body><div><p>x</p></div></body>`)
	paths := TagPaths(doc)
	want := map[string]bool{
		"HTML": true, "HTML/HEAD": true, "HTML/BODY": true,
		"HTML/BODY/DIV": true, "HTML/BODY/DIV/P": true,
	}
	if len(paths) != len(want) {
		t.Fatalf("got %d paths %v, want %d", len(paths), paths, len(want))
	}
	for _, p := range paths {
		if !want[p] {
			t.Errorf("unexpected path %q", p)
		}
	}
}

func TestWalkPrune(t *testing.T) {
	doc := Parse(`<div><section><p>deep</p></section><p>shallow</p></div>`)
	var visited []string
	Walk(Body(doc), func(n *Node) bool {
		if n.Type == ElementNode {
			visited = append(visited, n.Data)
		}
		return !n.TagIs("section") // prune below SECTION
	})
	for _, v := range visited {
		if v == "P" {
			// the shallow P is fine; ensure the deep one was pruned by
			// counting
			break
		}
	}
	count := 0
	for _, v := range visited {
		if v == "P" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("pruning failed: saw %d P elements, want 1", count)
	}
}

func TestNextPrevInDocument(t *testing.T) {
	doc := Parse(`<div><p>a</p><p><b>c</b></p></div>`)
	div := FindFirst(doc, func(n *Node) bool { return n.TagIs("div") })
	// Collect forward traversal from div.
	var fwd []*Node
	for n := div; n != nil; n = NextInDocument(n) {
		fwd = append(fwd, n)
	}
	// Walking back from the last must visit the same nodes reversed.
	var back []*Node
	for n := fwd[len(fwd)-1]; n != nil && n != div.Parent; n = PrevInDocument(n) {
		back = append(back, n)
	}
	if len(back) != len(fwd) {
		t.Fatalf("forward %d nodes, backward %d", len(fwd), len(back))
	}
	for i := range fwd {
		if fwd[i] != back[len(back)-1-i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}
