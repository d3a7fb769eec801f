// Package dom implements a tolerant HTML parser and a DOM-like document
// tree. It is the substrate that replaces the Mozilla rendering engine used
// by the Retrozilla prototype: the paper relies on Mozilla only for "an
// internal DOM representation of loaded HTML documents, whatever their
// syntactical quality", and this package provides exactly that — a
// forgiving tokenizer plus a tree builder that auto-closes elements,
// synthesizes missing structure and never fails on malformed markup.
//
// Element names are stored upper-cased (BODY, TABLE, TR, …) to match the
// notation used throughout the paper; matching elsewhere is
// case-insensitive.
package dom

import (
	"fmt"
	"strings"
)

// NodeType identifies the kind of a Node.
type NodeType int

// Node kinds. The wrapper-induction layer only distinguishes documents,
// elements and text; comments and doctypes are preserved so that
// re-serialized documents round-trip.
const (
	DocumentNode NodeType = iota
	ElementNode
	TextNode
	CommentNode
	DoctypeNode
	// AttributeNode values are synthesized transiently by the XPath
	// attribute axis; they never appear as children in parsed trees.
	// Data holds the attribute name; the value lives in Attr[0].Val.
	AttributeNode
)

// String returns a human-readable name for the node type.
func (t NodeType) String() string {
	switch t {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case DoctypeNode:
		return "doctype"
	case AttributeNode:
		return "attribute"
	default:
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
}

// Attribute is a single name="value" pair on an element. Names are stored
// lower-cased.
type Attribute struct {
	Key string
	Val string
}

// Node is a node of the document tree. The zero value is not useful;
// create nodes with NewElement, NewText or by parsing.
type Node struct {
	Type NodeType

	// Data holds the tag name for elements (upper-cased), the text for
	// text and comment nodes, and the raw declaration for doctypes.
	Data string

	Attr []Attribute

	Parent      *Node
	FirstChild  *Node
	LastChild   *Node
	PrevSibling *Node
	NextSibling *Node

	// ord is the node's document-order stamp: a 1-based depth-first index
	// assigned to every node of a tree by IndexOrder (Parse stamps
	// automatically). Zero means unstamped. Stamps are all-or-nothing per
	// tree — any structural mutation clears the whole tree's stamps — so a
	// non-zero stamp on any node guarantees the entire tree carries
	// consistent stamps and CompareDocumentOrder can reduce to one integer
	// comparison.
	ord uint64
}

// OrderIndex returns the node's document-order stamp, or 0 when the tree
// has not been indexed (or was mutated since).
func (n *Node) OrderIndex() uint64 { return n.ord }

// NewElement returns a detached element node with the given tag name.
func NewElement(tag string, attrs ...Attribute) *Node {
	return &Node{Type: ElementNode, Data: strings.ToUpper(tag), Attr: attrs}
}

// NewText returns a detached text node.
func NewText(text string) *Node {
	return &Node{Type: TextNode, Data: text}
}

// NewDocument returns an empty document node.
func NewDocument() *Node {
	return &Node{Type: DocumentNode}
}

// TagIs reports whether n is an element with the given tag name
// (case-insensitive).
func (n *Node) TagIs(tag string) bool {
	return n != nil && n.Type == ElementNode && strings.EqualFold(n.Data, tag)
}

// AttrVal returns the value of the named attribute (case-insensitive key)
// and whether it was present.
func (n *Node) AttrVal(key string) (string, bool) {
	for _, a := range n.Attr {
		if strings.EqualFold(a.Key, key) {
			return a.Val, true
		}
	}
	return "", false
}

// SetAttr sets or replaces the named attribute.
func (n *Node) SetAttr(key, val string) {
	key = strings.ToLower(key)
	for i, a := range n.Attr {
		if a.Key == key {
			n.Attr[i].Val = val
			return
		}
	}
	n.Attr = append(n.Attr, Attribute{Key: key, Val: val})
}

// invalidateAttach clears document-order stamps ahead of attaching the
// detached node c under n: the tree gaining a node can no longer trust any
// stamp, and a stamped fragment joining an unstamped tree would violate
// the all-or-nothing invariant.
func invalidateAttach(n, c *Node) {
	if n.ord != 0 {
		clearOrder(n.Root())
	}
	if c.ord != 0 {
		clearOrder(c)
	}
}

// clearOrder zeroes the stamps of n's subtree.
func clearOrder(n *Node) {
	n.ord = 0
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		clearOrder(c)
	}
}

// AppendChild adds c as the last child of n. c must be detached.
func (n *Node) AppendChild(c *Node) {
	if c.Parent != nil || c.PrevSibling != nil || c.NextSibling != nil {
		panic("dom: AppendChild called with attached child")
	}
	invalidateAttach(n, c)
	c.Parent = n
	c.PrevSibling = n.LastChild
	if n.LastChild != nil {
		n.LastChild.NextSibling = c
	} else {
		n.FirstChild = c
	}
	n.LastChild = c
}

// InsertBefore inserts c as a child of n immediately before ref. A nil ref
// appends. c must be detached; ref must be a child of n.
func (n *Node) InsertBefore(c, ref *Node) {
	if ref == nil {
		n.AppendChild(c)
		return
	}
	if ref.Parent != n {
		panic("dom: InsertBefore reference is not a child")
	}
	if c.Parent != nil || c.PrevSibling != nil || c.NextSibling != nil {
		panic("dom: InsertBefore called with attached child")
	}
	invalidateAttach(n, c)
	c.Parent = n
	c.NextSibling = ref
	c.PrevSibling = ref.PrevSibling
	if ref.PrevSibling != nil {
		ref.PrevSibling.NextSibling = c
	} else {
		n.FirstChild = c
	}
	ref.PrevSibling = c
}

// RemoveChild detaches c from n. c must be a child of n.
func (n *Node) RemoveChild(c *Node) {
	if c.Parent != n {
		panic("dom: RemoveChild called with non-child")
	}
	if n.ord != 0 {
		// Clearing from the root also zeroes c's subtree, so the detached
		// fragment leaves unstamped.
		clearOrder(n.Root())
	}
	if c.PrevSibling != nil {
		c.PrevSibling.NextSibling = c.NextSibling
	} else {
		n.FirstChild = c.NextSibling
	}
	if c.NextSibling != nil {
		c.NextSibling.PrevSibling = c.PrevSibling
	} else {
		n.LastChild = c.PrevSibling
	}
	c.Parent, c.PrevSibling, c.NextSibling = nil, nil, nil
}

// Children returns the direct children of n in order.
func (n *Node) Children() []*Node {
	var out []*Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		out = append(out, c)
	}
	return out
}

// ElementIndex returns the 1-based position of n among its element
// siblings with the same tag name — exactly the index used in the
// position-based XPaths the mapping-rule builder generates
// (e.g. the 3 in TD[3]). Returns 0 for non-elements or detached nodes.
func (n *Node) ElementIndex() int {
	if n == nil || n.Type != ElementNode {
		return 0
	}
	i := 1
	for s := n.PrevSibling; s != nil; s = s.PrevSibling {
		if s.Type == ElementNode && strings.EqualFold(s.Data, n.Data) {
			i++
		}
	}
	return i
}

// TextIndex returns the 1-based position of a text node among its text
// siblings — the index in text()[k] steps. Returns 0 for non-text nodes.
func (n *Node) TextIndex() int {
	if n == nil || n.Type != TextNode {
		return 0
	}
	i := 1
	for s := n.PrevSibling; s != nil; s = s.PrevSibling {
		if s.Type == TextNode {
			i++
		}
	}
	return i
}

// Root walks to the topmost ancestor of n.
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// Document returns the owning DocumentNode, or nil when n belongs to a
// detached fragment.
func (n *Node) Document() *Node {
	r := n.Root()
	if r.Type == DocumentNode {
		return r
	}
	return nil
}

// Clone deep-copies n and its subtree. The clone is detached.
func (n *Node) Clone() *Node {
	c := &Node{Type: n.Type, Data: n.Data}
	if len(n.Attr) > 0 {
		c.Attr = make([]Attribute, len(n.Attr))
		copy(c.Attr, n.Attr)
	}
	for k := n.FirstChild; k != nil; k = k.NextSibling {
		c.AppendChild(k.Clone())
	}
	return c
}
