package dom

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Sink receives the events of one tree-construction walk (Construct).
// Parse's tree builder is one sink; internal/streamx runs its rule
// automaton and its clustering features as two more over the same walk,
// so every consumer sees the tree Parse builds without any of them
// re-implementing how it is built. Events arrive in the order Parse
// creates nodes:
//
//   - Text(data, src) fires when a text node is complete ("seals"): at the
//     first event that would break text coalescing (an element or comment
//     appended to the open frame, a frame pop, EOF). It never fires for
//     the whitespace-only runs construction drops. data is the node's full
//     content: entity-decoded for normal text, undecoded inside raw-text
//     elements. src is the same bytes as a slice of the source when the
//     node is one undecoded source span, "" otherwise.
//   - StartElement fires for every element inserted into the tree, after
//     implied-end pops and after any open text sealed. name is the
//     upper-cased tag name and tag its table entry (nil for unknown tags);
//     span is the start tag's source, src[tok.Start:tok.End], from which
//     the attributes can be read. pushed reports whether a frame opened
//     (non-void, non-self-closing), detached whether the element was
//     routed into the synthesized HEAD.
//   - EndElement fires once per popped frame (explicit close, implied
//     close, or a BODY/HTML end tag). Frames still open at EOF are NOT
//     popped: Construct returns and the sink finalizes its own state.
//   - Comment fires after any open text sealed; the comment is a child of
//     the open frame. Doctype fires without sealing: the doctype goes
//     before HTML at document level.
//   - MergeAttrs fires for an HTML, HEAD or BODY start tag, whose
//     attributes merge onto the synthesized skeleton; nothing is inserted.
//
// Done is polled after every token; returning true stops the walk early.
// StartElement may return an error to abort it (e.g. a depth cap).
type Sink interface {
	StartElement(name []byte, tag *Tag, span string, pushed, detached bool) error
	EndElement()
	Text(data []byte, src string)
	Comment(data string)
	Doctype(data string)
	MergeAttrs(tag *Tag, span string)
	Done() bool
}

// Constructor holds the reusable state of one tree-construction walk: the
// tokenizer and the open-element frames. Construct replays over the token
// stream what Mozilla gives the Retrozilla plug-in for broken markup: a
// synthesized HTML > (HEAD, BODY) skeleton, head routing, implied end
// tags, table scope, whitespace dropping and text coalescing. All buffers
// are reused across walks; the zero value is ready to use. A Constructor
// is not safe for concurrent use.
type Constructor struct {
	z        Tokenizer
	frames   []frame
	textBuf  []byte // accumulated data of the open text node
	chunkBuf []byte // per-token decode scratch
	nameBuf  []byte // upper-cased tag name scratch
	textOpen bool
	// textStart/textEnd delimit the open text node's source while
	// textVerbatim holds: it is one contiguous, undecoded source span.
	textStart, textEnd int
	textVerbatim       bool
	seenBody           bool
}

type frame struct {
	name     string // tag name as it appeared in source (case preserved)
	tag      *Tag
	preserve bool // inside PRE or a raw-text element: keep whitespace-only text
	// inHead marks a head-routed TITLE/STYLE frame and every frame nested
	// in one. Such frames have children only when the TITLE or STYLE was
	// self-closed (so raw-text mode never began): what follows then nests
	// inside HEAD, where text does not start the body.
	inHead bool
}

var bodyTag = LookupTag("BODY")

// Construct runs tree construction over src, delivering events to s.
func Construct[S Sink](c *Constructor, src string, s S) error {
	c.z = Tokenizer{src: src}
	c.textOpen = false
	c.seenBody = false
	c.frames = append(c.frames[:0], frame{name: "BODY", tag: bodyTag})
	for {
		raw := c.z.rawTag != "" // the next text token is raw-text content
		tok := c.z.Next()
		switch tok.Type {
		case ErrorToken:
			c.sealText(s)
			return nil
		case TextToken:
			c.addText(tok, raw, s)
		case CommentToken:
			c.sealText(s)
			s.Comment(tok.Data)
		case DoctypeToken:
			s.Doctype(tok.Data)
		case StartTagToken, SelfClosingTagToken:
			if err := c.addElement(tok, s); err != nil {
				return err
			}
		case EndTagToken:
			c.closeElement(tok.Data, s)
		}
		if s.Done() {
			return nil
		}
	}
}

func (c *Constructor) top() *frame { return &c.frames[len(c.frames)-1] }

// fold upper-cases name ASCII byte-wise into the reusable name buffer.
func (c *Constructor) fold(name string) []byte {
	c.nameBuf = appendUpper(c.nameBuf[:0], name)
	return c.nameBuf
}

// appendUpper appends name upper-cased ASCII byte-wise (tag names are
// ASCII, so this is strings.ToUpper without the allocation).
func appendUpper(dst []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		ch := name[i]
		if ch >= 'a' && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		dst = append(dst, ch)
	}
	return dst
}

// foldUpperEqual reports whether ASCII-upper-casing raw yields upper.
func foldUpperEqual(raw string, upper []byte) bool {
	if len(raw) != len(upper) {
		return false
	}
	for i := 0; i < len(raw); i++ {
		ch := raw[i]
		if ch >= 'a' && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		if ch != upper[i] {
			return false
		}
	}
	return true
}

// allSpace reports whether b is entirely Unicode whitespace, the byte
// form of strings.TrimSpace(text) == "".
func allSpace(b []byte) bool {
	for i := 0; i < len(b); {
		ch := b[i]
		if ch < utf8.RuneSelf {
			if ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r' && ch != '\f' && ch != '\v' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if !unicode.IsSpace(r) {
			return false
		}
		i += size
	}
	return true
}

func (c *Constructor) sealText(s Sink) {
	if !c.textOpen {
		return
	}
	c.textOpen = false
	src := ""
	if c.textVerbatim {
		src = c.z.src[c.textStart:c.textEnd]
	}
	s.Text(c.textBuf, src)
}

// addText adds one text token to the open text node. Whitespace-only text
// between tags is source-formatting noise, not data: dropping it makes
// text()[k] indexes count only meaningful text nodes, matching the
// indexing used throughout the paper (text()[1] selects "108 min", not the
// indentation before <B>). PRE and raw-text contexts keep it. The test
// runs on the decoded form (entities can decode to whitespace), and a
// dropped chunk leaves coalescing untouched: entity decoding and dropped
// tags can split one text node over several tokens.
func (c *Constructor) addText(tok Token, raw bool, s Sink) {
	data := tok.Data
	if data == "" {
		return
	}
	top := c.top()
	var chunk []byte
	if raw {
		chunk = append(c.chunkBuf[:0], data...)
	} else {
		chunk = AppendUnescapedEntities(c.chunkBuf[:0], data)
	}
	c.chunkBuf = chunk[:0]
	wsOnly := allSpace(chunk)
	if wsOnly && !top.preserve {
		return
	}
	if !wsOnly && !top.inHead {
		c.seenBody = true
	}
	verbatim := raw || strings.IndexByte(data, '&') < 0
	if !c.textOpen {
		c.textOpen = true
		c.textBuf = c.textBuf[:0]
		c.textStart, c.textVerbatim = tok.Start, true
	} else if tok.Start != c.textEnd {
		verbatim = false
	}
	c.textVerbatim = c.textVerbatim && verbatim
	c.textEnd = tok.End
	c.textBuf = append(c.textBuf, chunk...)
}

func (c *Constructor) addElement(tok Token, s Sink) error {
	name := c.fold(tok.Data)
	tag := LookupTag(name)
	span := c.z.src[tok.Start:tok.End]
	if tag.is(tagSkeleton) {
		// No insertion, no coalescing break, no seenBody change.
		s.MergeAttrs(tag, span)
		return nil
	}
	if !c.seenBody && tag.is(tagHead) && len(c.frames) == 1 {
		// Route head-only elements into HEAD until body content starts.
		// No open text can exist here (any kept body text sets seenBody),
		// so nothing seals. TITLE and STYLE open a frame in HEAD even when
		// self-closed.
		pushed := tag.Name == "TITLE" || tag.Name == "STYLE"
		if err := s.StartElement(name, tag, span, pushed, true); err != nil {
			return err
		}
		if pushed {
			c.frames = append(c.frames, frame{name: tok.Data, tag: tag, preserve: true, inHead: true})
		}
		return nil
	}
	c.seenBody = c.seenBody || !tag.is(tagHead)

	// Pop the elements the incoming start tag implicitly terminates (TD
	// closes an open TD, LI closes LI, …).
	for len(c.frames) > 1 && tag.closes(c.top().tag) {
		c.popFrame(s)
	}
	// Appending the element breaks coalescing in the (possibly new) top.
	c.sealText(s)

	pushed := tok.Type != SelfClosingTagToken && !tag.is(tagVoid)
	if err := s.StartElement(name, tag, span, pushed, false); err != nil {
		return err
	}
	if pushed {
		top := c.top()
		c.frames = append(c.frames, frame{
			name: tok.Data, tag: tag,
			preserve: top.preserve || tag.is(tagPre|tagRaw),
			inHead:   top.inHead,
		})
	}
	return nil
}

func (c *Constructor) popFrame(s Sink) {
	// The open text node (if any) always lives in the top frame; popping
	// finalizes it.
	c.sealText(s)
	c.frames = c.frames[:len(c.frames)-1]
	s.EndElement()
}

// closeElement handles an end tag: pop frames until the matching element
// is closed. An end tag for an element that is not open is ignored
// (browser behaviour for stray end tags), and a row or cell end tag never
// pops across a TABLE, so a stray </tr> inside a nested table cannot
// close the outer row. </BODY> and </HTML> close everything.
func (c *Constructor) closeElement(rawName string, s Sink) {
	name := c.fold(rawName)
	// Well-formed markup closes the top frame: pop without interning.
	// (A void tag never pushes a frame, so a matching top can't be void,
	// and the scoped-end-tag scan below starts at the top anyway.)
	if len(c.frames) > 1 && foldUpperEqual(c.top().name, name) {
		c.popFrame(s)
		return
	}
	tag := LookupTag(name)
	if tag.is(tagVoid) {
		return
	}
	idx := -1
	for i := len(c.frames) - 1; i >= 1; i-- {
		if foldUpperEqual(c.frames[i].name, name) {
			idx = i
			break
		}
		if tag.is(tagTableScoped) && c.frames[i].tag.is(tagTable) {
			return
		}
	}
	if idx < 0 {
		if tag != nil && (tag.Name == "BODY" || tag.Name == "HTML") {
			idx = 1
		} else {
			return
		}
	}
	for len(c.frames) > idx {
		c.popFrame(s)
	}
}
