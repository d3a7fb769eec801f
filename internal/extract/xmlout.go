// Package extract implements the XML extraction processor of §4: it
// interprets the mapping rules of a repository to produce an XML document
// containing the targeted data (the primitive three-level structure of
// Figure 5, or a nested structure when the repository records an enhanced
// structure) and an XML Schema describing it, with cardinality constraints
// derived from the optionality and multiplicity properties.
//
// The processor also performs the semi-automatic failure detection the
// paper sketches in §7: a mandatory component that cannot be found in a
// page, or a single-valued component whose location returns more than one
// node, is reported as an extraction failure.
package extract

import (
	"bytes"
	"io"
	"strings"
	"sync"
)

// Element is a node of the produced XML document. Leaves carry Text;
// inner elements carry Children. Attributes are kept as an ordered list
// for deterministic output.
type Element struct {
	Name     string
	Attrs    []Attr
	Text     string
	Children []*Element
}

// Attr is one attribute of an output element.
type Attr struct {
	Name  string
	Value string
}

// NewElement creates an element.
func NewElement(name string) *Element { return &Element{Name: name} }

// Add appends a child and returns it for chaining.
func (e *Element) Add(child *Element) *Element {
	e.Children = append(e.Children, child)
	return child
}

// SetAttr appends an attribute.
func (e *Element) SetAttr(name, value string) {
	e.Attrs = append(e.Attrs, Attr{Name: name, Value: value})
}

// Find returns the first direct child with the given name, or nil.
func (e *Element) Find(name string) *Element {
	for _, c := range e.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// FindAll returns every direct child with the given name.
func (e *Element) FindAll(name string) []*Element {
	var out []*Element
	for _, c := range e.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// xmlBufPool recycles whole-document encode buffers: serializing into a
// pooled buffer and issuing a single Write keeps the per-request XML path
// free of the per-element builder allocations the recursive writer would
// otherwise pay.
var xmlBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// textEscaper and attrEscaper are built once; strings.Replacer is safe
// for concurrent use and WriteString escapes straight into the buffer
// without an intermediate string.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// WriteXML serializes the element tree with two-space indentation and an
// XML declaration, matching the Figure 5 layout.
func (e *Element) WriteXML(w io.Writer) error {
	buf := xmlBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	e.appendXML(buf, 0)
	_, err := w.Write(buf.Bytes())
	if buf.Cap() <= 1<<20 {
		xmlBufPool.Put(buf)
	}
	return err
}

// XMLString returns the serialized document.
func (e *Element) XMLString() string {
	var b strings.Builder
	_ = e.WriteXML(&b)
	return b.String()
}

func writeIndent(b *bytes.Buffer, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func (e *Element) appendXML(b *bytes.Buffer, depth int) {
	writeIndent(b, depth)
	b.WriteByte('<')
	b.WriteString(e.Name)
	for _, a := range e.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		b.WriteString(`="`)
		_, _ = attrEscaper.WriteString(b, a.Value)
		b.WriteByte('"')
	}
	switch {
	case len(e.Children) == 0 && e.Text == "":
		b.WriteString("/>\n")
	case len(e.Children) == 0:
		b.WriteByte('>')
		_, _ = textEscaper.WriteString(b, e.Text)
		b.WriteString("</")
		b.WriteString(e.Name)
		b.WriteString(">\n")
	default:
		b.WriteString(">\n")
		for _, c := range e.Children {
			c.appendXML(b, depth+1)
		}
		writeIndent(b, depth)
		b.WriteString("</")
		b.WriteString(e.Name)
		b.WriteString(">\n")
	}
}
