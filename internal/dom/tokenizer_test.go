package dom

import (
	"strings"
	"testing"
)

// collect drains the tokenizer.
func collect(src string) []Token {
	z := NewTokenizer(src)
	var out []Token
	for {
		tok := z.Next()
		if tok.Type == ErrorToken {
			return out
		}
		out = append(out, tok)
	}
}

// folded reads a tag token's name the way the tree-construction walk
// does: upper-cased.
func folded(tok Token) string { return string(appendUpper(nil, tok.Data)) }

// attrsOf reads a start tag token's attributes on demand from its span.
func attrsOf(src string, tok Token) []Attribute { return tagAttrs(src[tok.Start:tok.End]) }

func TestTokenizerBasic(t *testing.T) {
	src := `<p class="x">hi</p>`
	toks := collect(src)
	if len(toks) != 3 {
		t.Fatalf("tokens = %+v", toks)
	}
	if toks[0].Type != StartTagToken || folded(toks[0]) != "P" {
		t.Errorf("start = %+v", toks[0])
	}
	if attrs := attrsOf(src, toks[0]); len(attrs) != 1 || attrs[0].Key != "class" || attrs[0].Val != "x" {
		t.Errorf("attrs = %+v", attrs)
	}
	if toks[1].Type != TextToken || toks[1].Data != "hi" {
		t.Errorf("text = %+v", toks[1])
	}
	if toks[2].Type != EndTagToken || folded(toks[2]) != "P" {
		t.Errorf("end = %+v", toks[2])
	}
}

func TestTokenizerSelfClosing(t *testing.T) {
	toks := collect(`<br/><img src="x"/>`)
	if len(toks) != 2 {
		t.Fatalf("tokens = %+v", toks)
	}
	for _, tok := range toks {
		if tok.Type != SelfClosingTagToken {
			t.Errorf("want self-closing: %+v", tok)
		}
	}
}

func TestTokenizerStrayLT(t *testing.T) {
	toks := collect(`a < b and <3 hearts`)
	// Everything is text: stray '<' does not open tags.
	for _, tok := range toks {
		if tok.Type != TextToken {
			t.Fatalf("stray < created %+v", tok)
		}
	}
}

func TestTokenizerCommentAndDoctype(t *testing.T) {
	toks := collect(`<!DOCTYPE html><!-- note --><p>x</p>`)
	if toks[0].Type != DoctypeToken {
		t.Errorf("doctype = %+v", toks[0])
	}
	if toks[1].Type != CommentToken || toks[1].Data != " note " {
		t.Errorf("comment = %+v", toks[1])
	}
}

func TestTokenizerUnterminatedConstructs(t *testing.T) {
	cases := []string{
		`<!-- never closed`,
		`<p never closed`,
		`<p attr="never`,
		`<!DOCTYPE never`,
		`</`,
	}
	for _, src := range cases {
		toks := collect(src) // must terminate without panic
		_ = toks
	}
}

func TestTokenizerRawText(t *testing.T) {
	toks := collect(`<script>a<b</script>after`)
	if toks[0].Type != StartTagToken || folded(toks[0]) != "SCRIPT" {
		t.Fatalf("toks = %+v", toks)
	}
	if toks[1].Type != TextToken || toks[1].Data != "a<b" {
		t.Errorf("raw text = %+v", toks[1])
	}
	if toks[2].Type != EndTagToken || folded(toks[2]) != "SCRIPT" {
		t.Errorf("end = %+v", toks[2])
	}
	if toks[3].Type != TextToken || toks[3].Data != "after" {
		t.Errorf("after = %+v", toks[3])
	}
}

func TestTokenizerRawTextCaseInsensitiveClose(t *testing.T) {
	toks := collect(`<SCRIPT>x</ScRiPt>done`)
	if len(toks) < 4 || toks[2].Type != EndTagToken {
		t.Fatalf("toks = %+v", toks)
	}
}

func TestTokenizerAttributeVariants(t *testing.T) {
	src := `<a one two=2 three='3' four="4" five = 5 >x</a>`
	attrs := attrsOf(src, collect(src)[0])
	want := map[string]string{"one": "", "two": "2", "three": "3", "four": "4", "five": "5"}
	if len(attrs) != len(want) {
		t.Fatalf("attrs = %+v", attrs)
	}
	for _, a := range attrs {
		if want[a.Key] != a.Val {
			t.Errorf("attr %s = %q, want %q", a.Key, a.Val, want[a.Key])
		}
	}
}

func TestTokenizerEmptyEndTagSkipped(t *testing.T) {
	toks := collect(`a</>b`)
	// "</>" is dropped entirely; both text runs survive.
	text := ""
	for _, tok := range toks {
		if tok.Type == TextToken {
			text += tok.Data
		}
	}
	if text != "ab" {
		t.Errorf("text = %q", text)
	}
}

func TestOuterHTMLShort(t *testing.T) {
	doc := Parse(`<div id="x"><p>some long text content here</p></div>`)
	div := FindFirst(doc, func(n *Node) bool { return n.TagIs("div") })
	s := OuterHTMLShort(div, 10)
	if s != `<DIV id="x">…</DIV>` {
		t.Errorf("OuterHTMLShort = %q", s)
	}
	txt := FindFirst(doc, func(n *Node) bool { return n.Type == TextNode })
	ts := OuterHTMLShort(txt, 9)
	if ts != "#text(some long…)" {
		t.Errorf("text short = %q", ts)
	}
	if OuterHTMLShort(nil, 5) != "<nil>" {
		t.Error("nil case")
	}
}

func TestInnerHTML(t *testing.T) {
	doc := Parse(`<div><b>x</b>y</div>`)
	div := FindFirst(doc, func(n *Node) bool { return n.TagIs("div") })
	if got := InnerHTML(div); got != "<B>x</B>y" {
		t.Errorf("InnerHTML = %q", got)
	}
}

func TestLowerASCII(t *testing.T) {
	cases := map[string]string{
		"":             "",
		"script":       "script",
		"already low3": "already low3",
		"SCRIPT":       "script",
		"mIxEd-9":      "mixed-9",
		"x\xffY":       "x\xffy", // invalid UTF-8 bytes stay put
	}
	for in, want := range cases {
		if got := lowerASCII(in); got != want {
			t.Errorf("lowerASCII(%q) = %q, want %q", in, got, want)
		}
	}
	// Already-lowercase input must come back without allocating.
	in := "no upper case bytes at all, only text <and> punctuation"
	allocs := testing.AllocsPerRun(100, func() {
		if lowerASCII(in) != in {
			t.Error("lowerASCII changed lowercase input")
		}
	})
	if allocs != 0 {
		t.Errorf("lowerASCII allocates %.1f/op on lowercase input, want 0", allocs)
	}
}

func TestIndexCloseTagFoldInsensitive(t *testing.T) {
	cases := []struct {
		s, tag string
		want   int
	}{
		{"abc</script>", "script", 3},
		{"abc</SCRIPT >", "script", 3},
		{"abc</ScRiPt>", "script", 3},
		{"</x></script>", "script", 4},
		{"no closer here", "script", -1},
		{"</scrip", "script", -1},
		{"</</script>", "script", 2},
	}
	for _, c := range cases {
		if got := indexCloseTag(c.s, c.tag); got != c.want {
			t.Errorf("indexCloseTag(%q, %q) = %d, want %d", c.s, c.tag, got, c.want)
		}
	}
	// The scan allocates nothing, however long the raw text is.
	long := strings.Repeat("VAR x = 1; ", 2000) + "</SCRIPT>"
	allocs := testing.AllocsPerRun(20, func() {
		if indexCloseTag(long, "script") < 0 {
			t.Error("closer not found")
		}
	})
	if allocs != 0 {
		t.Errorf("indexCloseTag allocates %.1f/op, want 0", allocs)
	}
}

func TestRawTextMixedCaseCloser(t *testing.T) {
	doc := Parse(`<html><body><script>if (a < b) { x() }</SCRIPT><p>after</p></body></html>`)
	sc := FindFirst(doc, func(n *Node) bool { return n.TagIs("script") })
	if sc == nil || TextContent(sc) != "if (a < b) { x() }" {
		t.Fatalf("script content = %q", TextContent(sc))
	}
	p := FindFirst(doc, func(n *Node) bool { return n.TagIs("p") })
	if p == nil || TextContent(p) != "after" {
		t.Fatal("content after mixed-case closer lost")
	}
}
