package dom

import "strings"

// Walk visits n and every descendant in depth-first document order — the
// paper's §3.4 notes that "trees are traversed according to a Depth First
// Search, which is the most natural way of reading a document". The visit
// function returns false to prune the subtree below the visited node.
func Walk(n *Node, visit func(*Node) bool) {
	if n == nil {
		return
	}
	if !visit(n) {
		return
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		Walk(c, visit)
	}
}

// TextContent concatenates every descendant text node of n in document
// order. For a text node it returns the node's own data.
func TextContent(n *Node) string {
	if n == nil {
		return ""
	}
	if n.Type == TextNode {
		return n.Data
	}
	var b strings.Builder
	Walk(n, func(d *Node) bool {
		if d.Type == TextNode {
			b.WriteString(d.Data)
		}
		return true
	})
	return b.String()
}

// NextInDocument returns the node immediately after n in depth-first
// document order, or nil at the end of the tree.
func NextInDocument(n *Node) *Node {
	if n.FirstChild != nil {
		return n.FirstChild
	}
	for n != nil {
		if n.NextSibling != nil {
			return n.NextSibling
		}
		n = n.Parent
	}
	return nil
}

// PrevInDocument returns the node immediately before n in depth-first
// document order, or nil at the start of the tree.
func PrevInDocument(n *Node) *Node {
	if n.PrevSibling != nil {
		p := n.PrevSibling
		for p.LastChild != nil {
			p = p.LastChild
		}
		return p
	}
	return n.Parent
}

// IndexOrder stamps every node of n's tree with its 1-based depth-first
// document-order index, making CompareDocumentOrder a single integer
// comparison. Parse indexes automatically; call IndexOrder to (re)stamp a
// hand-built tree or one whose stamps a mutation cleared. The stamping
// always starts at the tree root, keeping stamps all-or-nothing per tree.
func IndexOrder(n *Node) {
	ord := uint64(0)
	var rec func(*Node)
	rec = func(x *Node) {
		ord++
		x.ord = ord
		for c := x.FirstChild; c != nil; c = c.NextSibling {
			rec(c)
		}
	}
	rec(n.Root())
}

// CompareDocumentOrder reports the relative document order of a and b:
// -1 when a precedes b, +1 when a follows b, 0 when a == b. Both nodes
// must belong to the same tree; nodes from different trees compare by
// traversal fallback (a not found before b ⇒ +1).
//
// When both nodes carry document-order stamps (see IndexOrder) the
// comparison is one integer compare; otherwise it falls back to walking
// ancestor chains.
func CompareDocumentOrder(a, b *Node) int {
	if a == b {
		return 0
	}
	if a.ord != 0 && b.ord != 0 && a.ord != b.ord {
		if a.ord < b.ord {
			return -1
		}
		return 1
	}
	// Ancestor relationships: an ancestor precedes its descendants.
	for p := b.Parent; p != nil; p = p.Parent {
		if p == a {
			return -1
		}
	}
	for p := a.Parent; p != nil; p = p.Parent {
		if p == b {
			return 1
		}
	}
	// Find the common ancestor and compare the diverging children.
	depth := func(n *Node) int {
		d := 0
		for p := n.Parent; p != nil; p = p.Parent {
			d++
		}
		return d
	}
	da, db := depth(a), depth(b)
	x, y := a, b
	for da > db {
		x = x.Parent
		da--
	}
	for db > da {
		y = y.Parent
		db--
	}
	for x.Parent != y.Parent {
		x = x.Parent
		y = y.Parent
	}
	for s := x.NextSibling; s != nil; s = s.NextSibling {
		if s == y {
			return -1
		}
	}
	return 1
}

// IsAncestorOf reports whether n is a proper ancestor of d.
func IsAncestorOf(n, d *Node) bool {
	for p := d.Parent; p != nil; p = p.Parent {
		if p == n {
			return true
		}
	}
	return false
}

// FindFirst returns the first node (in document order, starting at and
// including root) for which pred returns true, or nil.
func FindFirst(root *Node, pred func(*Node) bool) *Node {
	var found *Node
	Walk(root, func(n *Node) bool {
		if found != nil {
			return false
		}
		if pred(n) {
			found = n
			return false
		}
		return true
	})
	return found
}

// FindAll returns every node in the subtree rooted at root (inclusive)
// matching pred, in document order.
func FindAll(root *Node, pred func(*Node) bool) []*Node {
	var out []*Node
	Walk(root, func(n *Node) bool {
		if pred(n) {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Body returns the BODY element of a parsed document, or nil.
func Body(doc *Node) *Node {
	return FindFirst(doc, func(n *Node) bool { return n.TagIs("BODY") })
}

// TagPaths returns, for every element under root, the root-to-element tag
// path joined with '/' (e.g. "HTML/BODY/TABLE/TR/TD"). The page clusterer
// shingles these paths to fingerprint HTML structure.
func TagPaths(root *Node) []string {
	var out []string
	var rec func(n *Node, prefix string)
	rec = func(n *Node, prefix string) {
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if c.Type != ElementNode {
				continue
			}
			p := prefix + "/" + c.Data
			out = append(out, p[1:])
			rec(c, p)
		}
	}
	rec(root, "")
	return out
}
