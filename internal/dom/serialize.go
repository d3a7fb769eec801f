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
		if n.Parent != nil && LookupTag(n.Parent.Data).is(tagRaw) {
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
		if LookupTag(n.Data).is(tagVoid) {
			return
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			render(b, c)
		}
		b.WriteString("</")
		b.WriteString(n.Data)
		b.WriteByte('>')
	}
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
