package dom

import (
	"strings"
	"testing"
)

// collectTokens drains z, returning every token up to (not including) the
// first ErrorToken.
func collectTokens(z *Tokenizer) []Token {
	var out []Token
	for {
		t := z.Next()
		if t.Type == ErrorToken {
			return out
		}
		out = append(out, t)
	}
}

// TestTokenizerOffsetsCoverSource pins the Start/End contract on the
// FuzzParse regression corpus: offsets are in-bounds, monotone, and
// non-overlapping, and every text token's Data is derivable from its raw
// span (identically for raw-text content, via entity decoding otherwise).
func TestTokenizerOffsetsCoverSource(t *testing.T) {
	for _, src := range fuzzSeeds {
		prevEnd := 0
		for _, tok := range collectTokens(NewTokenizer(src)) {
			if tok.Start < 0 || tok.End > len(src) || tok.Start > tok.End {
				t.Fatalf("out-of-bounds span [%d,%d) len %d for %q", tok.Start, tok.End, len(src), src)
			}
			if tok.Start < prevEnd {
				t.Fatalf("overlapping span [%d,%d) after end %d for %q", tok.Start, tok.End, prevEnd, src)
			}
			prevEnd = tok.End
			if tok.Type == TextToken {
				raw := src[tok.Start:tok.End]
				if tok.Data != raw && tok.Data != UnescapeEntities(raw) {
					t.Fatalf("text token %q not derivable from span %q (input %q)", tok.Data, raw, src)
				}
			}
		}
		// Exhausted tokenizer keeps reporting EOF with a stable empty span.
		z := NewTokenizer(src)
		collectTokens(z)
		if tok := z.Next(); tok.Type != ErrorToken || tok.Start != len(src) || tok.End != len(src) {
			t.Fatalf("EOF token %+v for %q", tok, src)
		}
	}
}

// TestRawTextTokenOffsets is the regression suite for raw-text close
// scanning: the raw span must be exact (undecoded, unmoved by invalid
// UTF-8 or embedded entities) so consumers can slice the source.
func TestRawTextTokenOffsets(t *testing.T) {
	cases := []struct {
		src     string
		wantRaw string // Data of the raw-text TextToken
	}{
		{"<title>a&amp;b</title>", "a&amp;b"},
		{"<script>if (a < b) { x(); }</script>", "if (a < b) { x(); }"},
		{"<style>p>c{}</style>", "p>c{}"},
		{"<TEXTAREA>mixed</TeXtArEa>", "mixed"},
		{"<title>\x870</title><p>after</p>", "\x870"},
		{"<script>\xc2\xff</script>", "\xc2\xff"},
		{"<xmp></scrip</xmp>", "</scrip"},
		{"<title>unterminated runs to EOF", "unterminated runs to EOF"},
	}
	for _, tc := range cases {
		var got *Token
		toks := collectTokens(NewTokenizer(tc.src))
		for i := range toks {
			if toks[i].Type == TextToken {
				got = &toks[i]
				break
			}
		}
		if got == nil {
			t.Fatalf("no text token for %q", tc.src)
		}
		if got.Data != tc.wantRaw {
			t.Fatalf("raw text for %q: got %q want %q", tc.src, got.Data, tc.wantRaw)
		}
		if span := tc.src[got.Start:got.End]; span != tc.wantRaw {
			t.Fatalf("raw span for %q: got [%d,%d)=%q want %q", tc.src, got.Start, got.End, span, tc.wantRaw)
		}
	}
}

// TestRawTextOpenAtEOF: a raw-text element opened right at EOF produces no
// further tokens — the EOF check wins before the raw-text scanner runs,
// with a stable empty span.
func TestRawTextOpenAtEOF(t *testing.T) {
	z := NewTokenizer("<title>")
	start := z.Next()
	if start.Type != StartTagToken {
		t.Fatalf("first token %+v", start)
	}
	end := z.Next()
	if end.Type != ErrorToken || end.Start != len("<title>") || end.End != len("<title>") {
		t.Fatalf("expected EOF after unterminated raw-text open, got %+v", end)
	}
}

// TestEntityTextTokenOffsets: text tokens report the span of their raw,
// entity-encoded source bytes, which decode to the node's text.
func TestEntityTextTokenOffsets(t *testing.T) {
	src := "<p>x&amp;y &#65;&nbsp;</p>"
	z := NewTokenizer(src)
	z.Next() // <p>
	tok := z.Next()
	if tok.Type != TextToken || UnescapeEntities(tok.Data) != "x&y A " {
		t.Fatalf("decoded text token: %+v", tok)
	}
	if raw := src[tok.Start:tok.End]; raw != "x&amp;y &#65;&nbsp;" {
		t.Fatalf("raw span %q", raw)
	}
}

// TestAppendUnescapedEntities locks the append-form decoder to
// UnescapeEntities across the fuzz corpus and entity edge cases.
func TestAppendUnescapedEntities(t *testing.T) {
	inputs := append([]string{}, fuzzSeeds...)
	inputs = append(inputs,
		"&amp;&lt;&gt;&#65;&#x41;&nbsp;&euro;", "&", "&&&", "&amp", "&#xZZ;", "&#1114112;", "&#0;",
		"plain", "", "a&b&c&d", strings.Repeat("&amp;", 100))
	buf := make([]byte, 0, 256)
	for _, in := range inputs {
		buf = buf[:0]
		buf = AppendUnescapedEntities(buf, in)
		if got, want := string(buf), UnescapeEntities(in); got != want {
			t.Fatalf("AppendUnescapedEntities(%q) = %q, want %q", in, got, want)
		}
	}
}
