package streamx

import (
	"unicode"
	"unicode/utf8"

	"repro/internal/dom"
)

// sink receives the tree-construction events the engine derives from the
// token stream. The engine guarantees the same event order the parser
// would produce node creations in:
//
//   - text(data, raw) fires exactly when a text node is complete ("seals"),
//     i.e. at the first event that would break text coalescing (a real
//     element or comment appended to the open frame, a frame pop, EOF) —
//     never for whitespace-only runs the parser drops. data is the node's
//     full content: entity-decoded for normal text, raw bytes for raw-text
//     elements, exactly as the parser stores it.
//   - startElement fires for every element inserted into the tree, after
//     implied-end pops and after any open text sealed; pushed reports
//     whether a frame was opened (non-void, non-self-closing), detached
//     whether the element was routed into the synthesized HEAD.
//   - endElement fires once per popped frame (explicit close, implied
//     close, or a BODY/HTML end tag). Frames still open at EOF are NOT
//     popped — walk returns and the sink finalizes its own stacks.
//
// done is polled after every token; returning true stops the walk early.
// startElement may return an error to abort (e.g. a depth cap).
type sink interface {
	startElement(name []byte, meta *tagMeta, pushed, detached bool) error
	endElement()
	text(data []byte, raw bool)
	done() bool
}

// engine simulates the dom parser's stack discipline directly over the
// lazy token stream: same synthesized HTML>(HEAD,BODY) skeleton, same
// head routing, implied end tags, whitespace dropping, and text
// coalescing — without building nodes. All buffers are reused across runs.
type engine struct {
	z        dom.Tokenizer
	frames   []engFrame
	textBuf  []byte // accumulated data of the open text node
	chunkBuf []byte // per-token decode scratch
	nameBuf  []byte // upper-cased tag name scratch
	textOpen bool
	textRaw  bool
	seenBody bool
}

type engFrame struct {
	name     string // tag name as it appeared in source (case preserved)
	meta     *tagMeta
	preserve bool // inside PRE or a raw-text element: keep whitespace-only text
	// inHead marks a head-routed TITLE/STYLE frame and every frame nested
	// in one. Such frames have children only when the TITLE or STYLE was
	// self-closed (so raw-text mode never began): the parser then nests
	// what follows inside HEAD, where text does not start the body.
	inHead bool
}

// walk runs the engine over src, delivering events to s. Generic over the
// concrete sink type so both consumers get static dispatch.
func walk[S sink](e *engine, src string, s S) error {
	e.z.ResetLazy(src)
	e.textOpen = false
	e.seenBody = false
	e.frames = append(e.frames[:0], engFrame{name: "BODY", meta: metaBody})
	for {
		tok := e.z.Next()
		switch tok.Type {
		case dom.ErrorToken:
			e.sealText(s)
			return nil
		case dom.TextToken:
			e.addText(tok.Data, s)
		case dom.CommentToken:
			// The comment node breaks coalescing; it carries no other
			// signal for extraction or features.
			e.sealText(s)
		case dom.DoctypeToken:
			// Inserted before HTML at document level: no coalescing break,
			// no stack effect.
		case dom.StartTagToken, dom.SelfClosingTagToken:
			if err := e.addElement(tok, s); err != nil {
				return err
			}
		case dom.EndTagToken:
			e.closeElement(tok.Data, s)
		}
		if s.done() {
			return nil
		}
	}
}

func (e *engine) top() *engFrame { return &e.frames[len(e.frames)-1] }

// fold upper-cases name ASCII byte-wise into the reusable name buffer.
func (e *engine) fold(name string) []byte {
	b := e.nameBuf[:0]
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		b = append(b, c)
	}
	e.nameBuf = b
	return b
}

// foldUpperEqual reports whether ASCII-upper-casing raw yields upper.
func foldUpperEqual(raw string, upper []byte) bool {
	if len(raw) != len(upper) {
		return false
	}
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}

// allSpace reports whether b is entirely Unicode whitespace — the decoded
// equivalent of strings.TrimSpace(text) == "" in the parser.
func allSpace(b []byte) bool {
	for i := 0; i < len(b); {
		c := b[i]
		if c < utf8.RuneSelf {
			if c != ' ' && c != '\t' && c != '\n' && c != '\r' && c != '\f' && c != '\v' {
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

func (e *engine) sealText(s sink) {
	if !e.textOpen {
		return
	}
	e.textOpen = false
	s.text(e.textBuf, e.textRaw)
}

// addText mirrors parser.addText chunk for chunk: the whitespace test runs
// on the decoded form (entities can decode to whitespace), dropped chunks
// leave coalescing state untouched, kept chunks extend the open text node.
func (e *engine) addText(data string, s sink) {
	if data == "" {
		return
	}
	top := e.top()
	raw := top.meta != nil && top.meta.raw
	var chunk []byte
	if raw {
		// Raw-text content is stored undecoded by the parser.
		chunk = append(e.chunkBuf[:0], data...)
	} else {
		chunk = dom.AppendUnescapedEntities(e.chunkBuf[:0], data)
	}
	e.chunkBuf = chunk[:0]
	wsOnly := allSpace(chunk)
	if wsOnly && !top.preserve {
		return
	}
	if !wsOnly && !top.inHead {
		e.seenBody = true
	}
	if !e.textOpen {
		e.textOpen = true
		e.textRaw = raw
		e.textBuf = e.textBuf[:0]
	}
	e.textBuf = append(e.textBuf, chunk...)
}

func (e *engine) addElement(tok dom.Token, s sink) error {
	name := e.fold(tok.Data)
	meta := lookupTag(name)
	if meta != nil && meta.skeleton {
		// HTML/HEAD/BODY merge attributes onto the synthesized skeleton —
		// no insertion, no coalescing break, no seenBody change.
		return nil
	}
	if !e.seenBody && meta != nil && meta.head && len(e.frames) == 1 {
		// Route head-only elements into HEAD until body content starts.
		// No open text can exist here (any kept body text sets seenBody),
		// so nothing seals.
		pushHead := meta.name == "TITLE" || meta.name == "STYLE"
		if err := s.startElement(name, meta, pushHead, true); err != nil {
			return err
		}
		if pushHead {
			e.frames = append(e.frames, engFrame{
				name: tok.Data, meta: meta, preserve: true, inHead: true,
			})
		}
		return nil
	}
	e.seenBody = e.seenBody || meta == nil || !meta.head

	e.applyImpliedEndTags(meta, s)
	// Appending the element breaks coalescing in the (possibly new) top.
	e.sealText(s)

	pushed := tok.Type != dom.SelfClosingTagToken && (meta == nil || !meta.void)
	if err := s.startElement(name, meta, pushed, false); err != nil {
		return err
	}
	if pushed {
		top := e.top()
		e.frames = append(e.frames, engFrame{
			name: tok.Data, meta: meta,
			preserve: top.preserve || (meta != nil && (meta.pre || meta.raw)),
			inHead:   top.inHead,
		})
	}
	return nil
}

func (e *engine) applyImpliedEndTags(incoming *tagMeta, s sink) {
	if incoming == nil || incoming.closeBit < 0 {
		return // tags outside every closedBy set imply nothing
	}
	for len(e.frames) > 1 {
		cur := e.top().meta
		if cur == nil || cur.closedByMask&(1<<incoming.closeBit) == 0 {
			return
		}
		if incoming.tableScoped && cur.table {
			return
		}
		e.popFrame(s)
	}
}

func (e *engine) popFrame(s sink) {
	// The open text node (if any) always lives in the top frame; popping
	// finalizes it.
	e.sealText(s)
	e.frames = e.frames[:len(e.frames)-1]
	s.endElement()
}

func (e *engine) closeElement(rawName string, s sink) {
	name := e.fold(rawName)
	// Well-formed markup closes the top frame: pop without interning.
	// (A void tag never pushes a frame, so a matching top can't be void,
	// and the scoped-end-tag scan below starts at the top anyway.)
	if len(e.frames) > 1 && foldUpperEqual(e.top().name, name) {
		e.popFrame(s)
		return
	}
	meta := lookupTag(name)
	if meta != nil && meta.void {
		return
	}
	idx := -1
	for i := len(e.frames) - 1; i >= 1; i-- {
		if foldUpperEqual(e.frames[i].name, name) {
			idx = i
			break
		}
		if meta != nil && meta.tableScoped && e.frames[i].meta != nil && e.frames[i].meta.table {
			return // scope boundary: ignore the stray end tag
		}
	}
	if idx < 0 {
		if meta != nil && (meta.name == "BODY" || meta.name == "HTML") {
			for len(e.frames) > 1 {
				e.popFrame(s)
			}
		}
		return
	}
	for len(e.frames) > idx {
		e.popFrame(s)
	}
}
