package dom

import "sync"

// constructors recycles walk state across Parse calls, so a parse
// allocates only the tree.
var constructors = sync.Pool{New: func() any { return new(Constructor) }}

// Parse builds a document tree from HTML source. It never fails: any byte
// sequence yields a well-formed tree with a synthesized
// HTML > (HEAD, BODY) skeleton, mirroring what the Mozilla engine gives
// the Retrozilla plug-in for arbitrarily broken markup. The tree is built
// by a sink of Construct, the one tree-construction walk, so the stream
// consumers in internal/streamx see exactly the tree Parse returns.
func Parse(src string) *Node {
	b := &treeBuilder{doc: NewDocument(), html: NewElement("HTML")}
	b.doc.AppendChild(b.html)
	b.head = NewElement("HEAD")
	b.html.AppendChild(b.head)
	b.body = NewElement("BODY")
	b.html.AppendChild(b.body)
	b.cur = b.body
	c := constructors.Get().(*Constructor)
	_ = Construct(c, src, b) // the tree builder never aborts the walk
	constructors.Put(c)
	// Stamp document order: parsed trees are the extraction hot path, and
	// the stamps turn every document-order comparison during XPath
	// evaluation into an integer compare.
	IndexOrder(b.doc)
	return b.doc
}

// treeBuilder is the Sink that builds Parse's tree. cur is the element of
// the walk's top frame.
type treeBuilder struct {
	doc, html, head, body, cur *Node
}

func (b *treeBuilder) StartElement(name []byte, tag *Tag, span string, pushed, detached bool) error {
	el := &Node{Type: ElementNode, Attr: tagAttrs(span)}
	if tag != nil {
		el.Data = tag.Name
	} else {
		el.Data = string(name)
	}
	if detached {
		b.head.AppendChild(el)
	} else {
		b.cur.AppendChild(el)
	}
	if pushed {
		b.cur = el
	}
	return nil
}

func (b *treeBuilder) EndElement() {
	// Only frames above BODY pop, and the one frame not nested in its
	// predecessor is a head-routed TITLE or STYLE, whose predecessor is
	// BODY.
	b.cur = b.cur.Parent
	if b.cur == b.head {
		b.cur = b.body
	}
}

func (b *treeBuilder) Text(data []byte, src string) {
	if src == "" {
		src = string(data)
	}
	b.cur.AppendChild(NewText(src))
}

func (b *treeBuilder) Comment(data string) {
	b.cur.AppendChild(&Node{Type: CommentNode, Data: data})
}

func (b *treeBuilder) Doctype(data string) {
	b.doc.InsertBefore(&Node{Type: DoctypeNode, Data: data}, b.html)
}

func (b *treeBuilder) MergeAttrs(tag *Tag, span string) {
	el := b.body
	switch tag.Name {
	case "HEAD":
		return
	case "HTML":
		el = b.html
	}
	for _, a := range tagAttrs(span) {
		el.SetAttr(a.Key, a.Val)
	}
}

func (b *treeBuilder) Done() bool { return false }
