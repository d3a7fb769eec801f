package core

import (
	"fmt"

	"repro/internal/dom"
)

// Page is one Web page of a cluster: its URI and parsed document.
//
// A page constructed with NewPage is parsed eagerly (Doc is always set); a
// page constructed with NewPageLazy carries only the raw source and parses
// on the first Document call. Lazy pages keep the ingest hot path DOM-free:
// the streaming extractor and the streaming feature builder work straight
// from Source, and a tree is only materialized when some consumer
// genuinely needs one (general XPath fallback, page rendering, an
// induction job sampling its bucket).
type Page struct {
	URI string
	Doc *dom.Node

	src     string
	lazy    bool
	parse   func(src string) *dom.Node
	onParse func(*dom.Node)
}

// NewPage parses src into a Page.
func NewPage(uri, src string) *Page {
	return &Page{URI: uri, Doc: dom.Parse(src)}
}

// NewPageLazy returns a Page holding the raw source without parsing it.
// Doc stays nil until Document is called.
func NewPageLazy(uri, src string) *Page {
	return &Page{URI: uri, src: src, lazy: true}
}

// Source returns the raw HTML the page was constructed from and whether it
// is available (only lazy pages retain their source).
func (p *Page) Source() (string, bool) {
	return p.src, p.lazy
}

// SetOnParse registers a hook invoked (at most once) when Document
// builds a lazy page's tree, so a caller can observe that a parse
// happened (tests assert paths that must not parse).
func (p *Page) SetOnParse(fn func(*dom.Node)) {
	p.onParse = fn
}

// SetParser makes Document build the tree with parse instead of
// dom.Parse, so whatever parse does per tree (a cache lookup, hashing
// the source) is paid only by pages some consumer parses.
func (p *Page) SetParser(parse func(src string) *dom.Node) {
	p.parse = parse
}

// Document returns the parsed tree, materializing it on first use for lazy
// pages. For non-lazy pages it simply returns Doc (which may be nil for
// placeholder pages on pipeline error paths — those never carry source).
func (p *Page) Document() *dom.Node {
	if p.Doc == nil && p.lazy {
		if p.parse != nil {
			p.Doc = p.parse(p.src)
		} else {
			p.Doc = dom.Parse(p.src)
		}
		if p.onParse != nil {
			p.onParse(p.Doc)
			p.onParse = nil
		}
	}
	return p.Doc
}

// Oracle supplies the human contribution of the Retrozilla scenario: given
// a component name and a page, point at the DOM nodes forming the
// component value in that page. A nil result means the component is absent
// from the page (which drives the optionality refinement); multiple nodes
// mean either a multivalued component (sibling instances) or a mixed
// value. In the interactive tool the oracle is the user clicking in the
// browser; in the experiments it is the corpus ground truth.
type Oracle interface {
	Select(component string, p *Page) []*dom.Node
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(component string, p *Page) []*dom.Node

// Select implements Oracle.
func (f OracleFunc) Select(component string, p *Page) []*dom.Node {
	return f(component, p)
}

// Sample is a working sample: the representative subset of a page cluster
// the rules are induced from (§3.1). Practice per the paper: ~10 randomly
// selected pages usually include most structural variants.
type Sample []*Page

// FirstWith returns the first page in which the oracle finds the
// component, mirroring the "randomly chosen page" that seeds candidate
// rule building (§3.2); deterministic order keeps experiments
// reproducible.
func (s Sample) FirstWith(component string, o Oracle) (*Page, []*dom.Node, error) {
	for _, p := range s {
		if nodes := o.Select(component, p); len(nodes) > 0 {
			return p, nodes, nil
		}
	}
	return nil, nil, fmt.Errorf("core: component %q not present in any sample page", component)
}
