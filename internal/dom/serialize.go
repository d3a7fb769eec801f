package dom

import (
	"strings"
)

// Render serializes the tree rooted at n back to HTML. The output is not
// byte-identical to the original source (the parser normalizes case and
// synthesizes structure) but re-parsing it yields an isomorphic tree,
// which the round-trip property tests verify.
func Render(n *Node) string {
	var b strings.Builder
	render(&b, n)
	return b.String()
}

func render(b *strings.Builder, n *Node) {
	switch n.Type {
	case DocumentNode:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			render(b, c)
		}
	case DoctypeNode:
		b.WriteString("<!")
		b.WriteString(n.Data)
		b.WriteString(">")
	case CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case TextNode:
		if n.Parent != nil && rawForm(n.Parent) {
			b.WriteString(n.Data)
		} else {
			b.WriteString(EscapeText(n.Data))
		}
	case ElementNode:
		b.WriteByte('<')
		b.WriteString(n.Data)
		for _, a := range n.Attr {
			b.WriteByte(' ')
			b.WriteString(a.Key)
			b.WriteString(`="`)
			b.WriteString(EscapeAttr(a.Val))
			b.WriteByte('"')
		}
		b.WriteByte('>')
		tag := LookupTag(n.Data)
		if tag.is(tagVoid) {
			return
		}
		if tag.is(tagRaw) && !rawForm(n) {
			writeRawExit(b, n)
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			render(b, c)
		}
		b.WriteString("</")
		b.WriteString(n.Data)
		b.WriteByte('>')
	}
}

// rawForm reports whether the raw-text element n renders its content
// raw, the way the tokenizer reads it back: only when every child is
// text holding no close tag for n. Raw-text mode ends at "</" and n's
// name whatever follows, and an end tag naming no open element leaves n
// open, so n can also hold decoded text, comments and elements; so can
// a TITLE or STYLE self-closed in HEAD, which never enters raw-text
// mode.
func rawForm(n *Node) bool {
	tag := LookupTag(n.Data)
	if !tag.is(tagRaw) {
		return false
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if c.Type != TextNode || indexCloseTag(c.Data, rawTextLower[tag.Name]) >= 0 {
			return false
		}
	}
	return true
}

// writeRawExit writes, after the start tag of a raw-text element n that
// is not in rawForm, an end tag that ends raw-text mode but closes no
// element: n's name with more underscores than any open element (an
// ancestor of n) has after that name. What follows then parses as markup
// nested in n, up to n's own end tag.
func writeRawExit(b *strings.Builder, n *Node) {
	k := 1
	for a := n.Parent; a != nil; a = a.Parent {
		if len(a.Data) > len(n.Data) && strings.EqualFold(a.Data[:len(n.Data)], n.Data) &&
			strings.Trim(a.Data[len(n.Data):], "_") == "" {
			k = max(k, len(a.Data)-len(n.Data)+1)
		}
	}
	b.WriteString("</")
	b.WriteString(n.Data)
	b.WriteString(strings.Repeat("_", k))
	b.WriteByte('>')
}

// OuterHTMLShort renders a one-line abbreviation of a node for debugging
// and rule-check reports: elements show as <TAG attr…> with children
// elided, text as its (truncated) content.
func OuterHTMLShort(n *Node, maxText int) string {
	if n == nil {
		return "<nil>"
	}
	switch n.Type {
	case TextNode:
		s := strings.TrimSpace(n.Data)
		if maxText > 0 && len(s) > maxText {
			s = s[:maxText] + "…"
		}
		return "#text(" + s + ")"
	case ElementNode:
		var b strings.Builder
		b.WriteByte('<')
		b.WriteString(n.Data)
		for _, a := range n.Attr {
			b.WriteByte(' ')
			b.WriteString(a.Key)
			b.WriteString(`="`)
			b.WriteString(a.Val)
			b.WriteByte('"')
		}
		if n.FirstChild != nil {
			b.WriteString(">…</")
			b.WriteString(n.Data)
			b.WriteByte('>')
		} else {
			b.WriteString("/>")
		}
		return b.String()
	default:
		return n.Type.String()
	}
}

// InnerHTML serializes only the children of n.
func InnerHTML(n *Node) string {
	var b strings.Builder
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		render(&b, c)
	}
	return b.String()
}
