package dom

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomTree builds a random well-formed element tree with text, comments
// and attributes, bounded in size.
func randomTree(r *rand.Rand, depth int) *Node {
	tags := []string{"DIV", "P", "SPAN", "TABLE", "TR", "TD", "UL", "LI", "B", "I", "H1"}
	// Avoid auto-closing interactions by keeping parent/child pairs legal:
	// we only nest generic containers.
	generic := []string{"DIV", "P", "SPAN", "B", "I", "H1"}
	_ = tags
	el := NewElement(generic[r.Intn(len(generic))])
	if r.Intn(3) == 0 {
		el.SetAttr("class", randWord(r))
	}
	if r.Intn(5) == 0 {
		el.SetAttr("data-x", randWord(r)+`"&<>`)
	}
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		switch {
		case depth > 0 && r.Intn(2) == 0:
			el.AppendChild(randomTree(r, depth-1))
		case r.Intn(4) == 0:
			el.AppendChild(&Node{Type: CommentNode, Data: randWord(r)})
		default:
			// Text with entity-worthy characters; never whitespace-only
			// (the parser drops those by design) and never adjacent to an
			// existing text node (the parser coalesces those).
			if el.LastChild != nil && el.LastChild.Type == TextNode {
				continue
			}
			el.AppendChild(NewText(randWord(r) + " <&> " + randWord(r)))
		}
	}
	return el
}

func randWord(r *rand.Rand) string {
	letters := "abcdefghijklmnopqrstuvwxyzABC123"
	n := 1 + r.Intn(8)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(letters[r.Intn(len(letters))])
	}
	return b.String()
}

// TestPropertyRenderParseRoundTrip: rendering a random tree and reparsing
// yields an isomorphic tree (modulo the synthesized skeleton).
func TestPropertyRenderParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		root := NewElement("DIV")
		root.AppendChild(randomTree(r, 3))
		html := "<html><body>" + Render(root) + "</body></html>"
		doc := Parse(html)
		body := Body(doc)
		if body == nil || body.FirstChild == nil {
			t.Fatalf("iteration %d: no body content for %q", i, html)
		}
		got := body.FirstChild
		if !isomorphicModuloP(root, got) {
			t.Fatalf("iteration %d: round-trip mismatch\nwant %s\ngot  %s",
				i, Render(root), Render(got))
		}
	}
}

// isomorphicModuloP compares trees; P elements may have been split by
// auto-closing rules when nested (P inside P), so nested P trees compare
// loosely: we only require the same text content in that case.
func isomorphicModuloP(a, b *Node) bool {
	if hasNestedP(a) {
		return TextContent(a) == TextContent(b)
	}
	return treesIsomorphic(a, b)
}

func hasNestedP(n *Node) bool {
	found := false
	Walk(n, func(x *Node) bool {
		if x.TagIs("P") {
			Walk(x, func(y *Node) bool {
				if y != x && (y.TagIs("P") || y.TagIs("H1") || y.TagIs("DIV")) {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// TestPropertyParseNeverPanicsAndIsSane: arbitrary byte soup parses into
// a structurally valid tree.
func TestPropertyParseNeverPanicsAndIsSane(t *testing.T) {
	f := func(s string) bool {
		doc := Parse(s)
		return validTree(t, doc)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// Targeted nasty inputs.
	nasty := []string{
		"", "<", ">", "</", "<>", "<!", "<!--", "<a", "<a href", `<a href="`,
		"</td></td></table>", "<table><table><table>", "<b><i></b></i>",
		"<script>", "<script><div>", "&", "&#", "&#x", "&amp", "<p></p></p>",
		strings.Repeat("<div>", 2000), strings.Repeat("</span>", 100),
		"<td>no table</td>", "\x00\x01\x02", "<a b=c d='e\" f>g</a>",
	}
	for _, s := range nasty {
		doc := Parse(s)
		if !validTree(t, doc) {
			t.Errorf("invalid tree for %q", s)
		}
	}
}

// validTree checks structural invariants: parent/child/sibling links are
// mutually consistent and the tree is acyclic.
func validTree(t *testing.T, root *Node) bool {
	t.Helper()
	seen := map[*Node]bool{}
	ok := true
	var rec func(n *Node)
	rec = func(n *Node) {
		if !ok {
			return
		}
		if seen[n] {
			t.Errorf("cycle or shared node detected")
			ok = false
			return
		}
		seen[n] = true
		var prev *Node
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if c.Parent != n {
				t.Errorf("child with wrong parent")
				ok = false
				return
			}
			if c.PrevSibling != prev {
				t.Errorf("broken sibling chain")
				ok = false
				return
			}
			prev = c
			rec(c)
		}
		if n.LastChild != prev {
			t.Errorf("LastChild mismatch")
			ok = false
		}
	}
	rec(root)
	return ok
}

// TestPropertyDocumentOrderTotal: CompareDocumentOrder is a strict total
// order over the nodes of a parsed document consistent with DFS.
func TestPropertyDocumentOrderTotal(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		root := NewElement("DIV")
		root.AppendChild(randomTree(r, 3))
		doc := Parse("<html><body>" + Render(root) + "</body></html>")
		var nodes []*Node
		Walk(doc, func(n *Node) bool {
			nodes = append(nodes, n)
			return true
		})
		for a := 0; a < len(nodes); a += 3 {
			for b := 0; b < len(nodes); b += 3 {
				got := CompareDocumentOrder(nodes[a], nodes[b])
				var want int
				switch {
				case a < b:
					want = -1
				case a > b:
					want = 1
				}
				if got != want {
					t.Fatalf("order(%d,%d) = %d, want %d", a, b, got, want)
				}
			}
		}
	}
}

// TestPropertyNextPrevInverse: NextInDocument and PrevInDocument are
// inverses along the DFS sequence.
func TestPropertyNextPrevInverse(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		root := NewElement("DIV")
		root.AppendChild(randomTree(r, 3))
		doc := Parse("<html><body>" + Render(root) + "</body></html>")
		for n := NextInDocument(doc); n != nil; n = NextInDocument(n) {
			if p := PrevInDocument(n); p == nil || NextInDocument(p) != n {
				t.Fatal("Next/Prev not inverse")
			}
		}
	}
}

// TestPropertyUnescapeEscape: escaping then unescaping text is identity.
func TestPropertyUnescapeEscape(t *testing.T) {
	f := func(s string) bool {
		return UnescapeEntities(EscapeText(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	fa := func(s string) bool {
		return UnescapeEntities(EscapeAttr(s)) == s
	}
	if err := quick.Check(fa, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
