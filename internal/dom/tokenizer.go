package dom

import (
	"strings"
)

// TokenType classifies lexical tokens produced by the Tokenizer.
type TokenType int

// Token kinds.
const (
	ErrorToken TokenType = iota // end of input
	TextToken
	StartTagToken
	EndTagToken
	SelfClosingTagToken
	CommentToken
	DoctypeToken
)

// Token is one lexical token of an HTML document.
type Token struct {
	Type TokenType
	// Data is a slice of the source: the tag name as written (callers
	// fold its case) for tag tokens, the undecoded text for text tokens,
	// and the raw content for comments/doctypes. Attributes are read on
	// demand from a start tag's span (tagAttrs).
	Data string
	// Start and End delimit the raw source bytes the token was scanned
	// from: src[Start:End] is exactly the input consumed to produce it.
	// For text tokens this is always the undecoded span, so a consumer
	// that wants to decode entities itself can slice the source; for tag
	// tokens Start sits on the opening '<'. A synthetic token (the
	// EndTagToken emitted for an unterminated raw-text element, or
	// ErrorToken at EOF) has Start == End.
	Start, End int
}

// Tokenizer scans an HTML document into tokens. It never returns an error
// other than end-of-input: malformed constructs are interpreted leniently
// the way browsers interpret them (a stray '<' becomes text, unterminated
// comments run to EOF, attribute quotes may be missing).
type Tokenizer struct {
	src string
	pos int
	// rawTag, when non-empty, is the canonical upper-cased name of the
	// element whose raw text content is being consumed (SCRIPT, STYLE,
	// TEXTAREA, TITLE, XMP).
	rawTag string
}

// NewTokenizer returns a Tokenizer reading from src. Scanning allocates
// nothing: every token is a span of src.
func NewTokenizer(src string) *Tokenizer {
	return &Tokenizer{src: src}
}

// rawTextLower maps each raw-text tag to its lower-cased form once, so
// scanning for a closing tag never re-lowers the tag per token.
var rawTextLower = func() map[string]string {
	m := map[string]string{}
	for _, t := range knownTags {
		if t.is(tagRaw) {
			m[t.Name] = lowerASCII(t.Name)
		}
	}
	return m
}()

// canonicalRawTag reports the canonical upper-cased raw-text tag name for
// name compared ASCII case-insensitively, or "" if name is not a raw-text
// tag. Allocation-free (unlike ToUpper + map lookup).
func canonicalRawTag(name string) string {
	switch len(name) {
	case 3:
		if foldEqualASCII(name, "xmp") {
			return "XMP"
		}
	case 5:
		if foldEqualASCII(name, "style") {
			return "STYLE"
		}
		if foldEqualASCII(name, "title") {
			return "TITLE"
		}
	case 6:
		if foldEqualASCII(name, "script") {
			return "SCRIPT"
		}
	case 8:
		if foldEqualASCII(name, "textarea") {
			return "TEXTAREA"
		}
	}
	return ""
}

// Next returns the next token. After the input is exhausted it returns
// a Token with Type ErrorToken forever.
func (z *Tokenizer) Next() Token {
	if z.pos >= len(z.src) {
		return Token{Type: ErrorToken, Start: len(z.src), End: len(z.src)}
	}
	if z.rawTag != "" {
		return z.nextRawText()
	}
	if z.src[z.pos] != '<' {
		return z.nextText()
	}
	// '<' at z.pos: decide among comment, doctype, end tag, start tag, or
	// literal text (e.g. "<3").
	rest := z.src[z.pos:]
	switch {
	case strings.HasPrefix(rest, "<!--"):
		return z.nextComment()
	case strings.HasPrefix(rest, "<!"):
		return z.nextDoctype()
	case strings.HasPrefix(rest, "</"):
		return z.nextEndTag()
	case len(rest) > 1 && isTagNameStart(rest[1]):
		return z.nextStartTag()
	default:
		// A lone '<' not starting a tag is literal text.
		return z.textUpTo(z.findNextLT(z.pos + 1))
	}
}

func isTagNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func (z *Tokenizer) findNextLT(from int) int {
	i := strings.IndexByte(z.src[from:], '<')
	if i < 0 {
		return len(z.src)
	}
	return from + i
}

func (z *Tokenizer) textUpTo(end int) Token {
	start := z.pos
	z.pos = end
	return Token{Type: TextToken, Data: z.src[start:end], Start: start, End: end}
}

func (z *Tokenizer) nextText() Token {
	return z.textUpTo(z.findNextLT(z.pos))
}

func (z *Tokenizer) nextRawText() Token {
	// Scan for "</tag" with an ASCII-only byte-wise fold: strings.ToLower
	// would widen invalid UTF-8 bytes into replacement runes,
	// desynchronizing the found index from byte offsets in the original
	// source — and lowering a copy of the whole remaining document per raw
	// element is an O(len(src)) allocation the scan avoids entirely.
	idx := indexCloseTag(z.src[z.pos:], rawTextLower[z.rawTag])
	tag := z.rawTag
	if idx < 0 {
		// Unterminated raw element: consume to EOF.
		start := z.pos
		t := Token{Type: TextToken, Data: z.src[start:], Start: start, End: len(z.src)}
		z.pos = len(z.src)
		z.rawTag = ""
		if t.Data == "" {
			// Synthetic close for "<title>" at EOF: no source bytes back it.
			return Token{Type: EndTagToken, Data: tag, Start: start, End: start}
		}
		return t
	}
	if idx == 0 {
		// At the closing tag itself.
		z.rawTag = ""
		return z.nextEndTag()
	}
	start := z.pos
	t := Token{Type: TextToken, Data: z.src[start : start+idx], Start: start, End: start + idx}
	z.pos += idx
	z.rawTag = ""
	return t
}

// lowerASCII lowercases A-Z byte-wise, leaving every other byte — and
// therefore every byte offset — untouched. Already-lowercase input (the
// common case for real-world HTML) is returned unchanged without
// allocating; otherwise conversion resumes at the first upper-case byte.
func lowerASCII(s string) string {
	first := -1
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			first = i
			break
		}
	}
	if first < 0 {
		return s
	}
	b := []byte(s)
	for i := first; i < len(b); i++ {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// indexCloseTag returns the byte offset of the first "</tag" occurrence in
// s, matching the tag ASCII case-insensitively (tag must be lower-case),
// or -1. Unlike lowering s first, the scan allocates nothing.
func indexCloseTag(s, tag string) int {
	from := 0
	for {
		i := strings.Index(s[from:], "</")
		if i < 0 {
			return -1
		}
		i += from
		rest := s[i+2:]
		if len(rest) >= len(tag) && foldEqualASCII(rest[:len(tag)], tag) {
			return i
		}
		from = i + 2
	}
}

// foldEqualASCII reports whether a equals b after byte-wise ASCII
// lower-casing of a. b must already be lower-case and len(a) == len(b).
func foldEqualASCII(a, b string) bool {
	for i := 0; i < len(b); i++ {
		c := a[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != b[i] {
			return false
		}
	}
	return true
}

func (z *Tokenizer) nextComment() Token {
	tokStart := z.pos
	start := z.pos + 4 // skip <!--
	end := strings.Index(z.src[start:], "-->")
	if end < 0 {
		t := Token{Type: CommentToken, Data: z.src[start:], Start: tokStart, End: len(z.src)}
		z.pos = len(z.src)
		return t
	}
	t := Token{Type: CommentToken, Data: z.src[start : start+end], Start: tokStart, End: start + end + 3}
	z.pos = start + end + 3
	return t
}

func (z *Tokenizer) nextDoctype() Token {
	tokStart := z.pos
	start := z.pos + 2 // skip <!
	end := strings.IndexByte(z.src[start:], '>')
	if end < 0 {
		t := Token{Type: DoctypeToken, Data: z.src[start:], Start: tokStart, End: len(z.src)}
		z.pos = len(z.src)
		return t
	}
	t := Token{Type: DoctypeToken, Data: z.src[start : start+end], Start: tokStart, End: start + end + 1}
	z.pos = start + end + 1
	return t
}

func (z *Tokenizer) nextEndTag() Token {
	tokStart := z.pos
	i := z.pos + 2 // skip </
	j := i
	for j < len(z.src) && isNameByte(z.src[j]) {
		j++
	}
	name := z.src[i:j]
	// Skip to closing '>'.
	k := strings.IndexByte(z.src[j:], '>')
	if k < 0 {
		z.pos = len(z.src)
	} else {
		z.pos = j + k + 1
	}
	if name == "" {
		// "</>" or "</ ..." — browsers drop these; emit as comment-ish skip
		// by recursing to the next token.
		return z.Next()
	}
	return Token{Type: EndTagToken, Data: name, Start: tokStart, End: z.pos}
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '-' || c == '_' || c == ':'
}

func (z *Tokenizer) nextStartTag() Token {
	tokStart := z.pos
	i := z.pos + 1
	j := i
	for j < len(z.src) && isNameByte(z.src[j]) {
		j++
	}
	tok := Token{Type: StartTagToken, Data: z.src[i:j], Start: tokStart}
	z.pos = j
	if z.scanAttrs(nil) {
		tok.Type = SelfClosingTagToken
	} else if canon := canonicalRawTag(tok.Data); canon != "" {
		z.rawTag = canon
	}
	tok.End = z.pos
	return tok
}

// tagAttrs reads the attributes of a start tag from its source span
// (src[tok.Start:tok.End]): keys lower-cased, values entity-decoded, in
// source order. Rescanning the span consumes exactly what the tokenizer
// consumed, since attribute scanning never looks past the token's end.
func tagAttrs(span string) []Attribute {
	z := Tokenizer{src: span, pos: 1}
	for z.pos < len(span) && isNameByte(span[z.pos]) {
		z.pos++
	}
	var attrs []Attribute
	z.scanAttrs(&attrs)
	return attrs
}

// scanAttrs consumes attributes and the tag terminator ('>' or '/>'),
// reporting whether the tag self-closes. When attrs is non-nil each
// attribute is appended to it.
func (z *Tokenizer) scanAttrs(attrs *[]Attribute) (selfClosing bool) {
	for {
		z.skipSpace()
		if z.pos >= len(z.src) {
			return false
		}
		switch z.src[z.pos] {
		case '>':
			z.pos++
			return false
		case '/':
			z.pos++
			z.skipSpace()
			if z.pos < len(z.src) && z.src[z.pos] == '>' {
				z.pos++
				return true
			}
			continue // stray slash inside a tag: ignore
		}
		key := z.readAttrName()
		if key == "" {
			// Unparseable byte inside the tag; skip it to guarantee progress.
			z.pos++
			continue
		}
		z.skipSpace()
		val := ""
		if z.pos < len(z.src) && z.src[z.pos] == '=' {
			z.pos++
			z.skipSpace()
			val = z.readAttrValue()
		}
		if attrs != nil {
			*attrs = append(*attrs, Attribute{Key: strings.ToLower(key), Val: UnescapeEntities(val)})
		}
	}
}

func (z *Tokenizer) skipSpace() {
	for z.pos < len(z.src) {
		switch z.src[z.pos] {
		case ' ', '\t', '\n', '\r', '\f':
			z.pos++
		default:
			return
		}
	}
}

func (z *Tokenizer) readAttrName() string {
	start := z.pos
	for z.pos < len(z.src) {
		c := z.src[z.pos]
		if c == '=' || c == '>' || c == '/' || c == ' ' || c == '\t' ||
			c == '\n' || c == '\r' || c == '\f' {
			break
		}
		z.pos++
	}
	return z.src[start:z.pos]
}

// readAttrValue consumes an attribute value and returns it undecoded:
// quoted values run to the matching quote (or EOF), unquoted values to
// whitespace or '>'.
func (z *Tokenizer) readAttrValue() string {
	if z.pos >= len(z.src) {
		return ""
	}
	quote := z.src[z.pos]
	if quote == '"' || quote == '\'' {
		z.pos++
		end := strings.IndexByte(z.src[z.pos:], quote)
		if end < 0 {
			v := z.src[z.pos:]
			z.pos = len(z.src)
			return v
		}
		v := z.src[z.pos : z.pos+end]
		z.pos += end + 1
		return v
	}
	start := z.pos
	for z.pos < len(z.src) {
		c := z.src[z.pos]
		if c == '>' || c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' {
			break
		}
		z.pos++
	}
	return z.src[start:z.pos]
}
