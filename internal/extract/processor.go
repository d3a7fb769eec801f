package extract

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/rule"
	"repro/internal/streamx"
	"repro/internal/textutil"
	"repro/internal/xpath"
)

// FailureKind classifies extraction failures (§7).
type FailureKind int

// Failure kinds.
const (
	// FailureMissingMandatory: a mandatory component could not be found
	// in a page.
	FailureMissingMandatory FailureKind = iota
	// FailureMultipleValues: a single-valued component's location
	// returned more than one node.
	FailureMultipleValues
)

// String names the failure kind.
func (k FailureKind) String() string {
	switch k {
	case FailureMissingMandatory:
		return "missing-mandatory"
	case FailureMultipleValues:
		return "multiple-values"
	default:
		return fmt.Sprintf("FailureKind(%d)", int(k))
	}
}

// Failure is one detected extraction failure.
type Failure struct {
	PageURI   string
	Component string
	Kind      FailureKind
	Detail    string
}

func (f Failure) String() string {
	return fmt.Sprintf("%s: component %q: %s (%s)", f.PageURI, f.Component, f.Kind, f.Detail)
}

// Processor applies a repository's rules to pages and assembles the XML
// document.
//
// A Processor is immutable after NewProcessor: its compiled rules are
// read-only shared state, so ExtractPage and ExtractCluster are safe to
// call from any number of goroutines. Values are cleaned only by the
// refinement recorded with each rule (§7), which travels with the
// repository.
type Processor struct {
	Repo *rule.Repository

	compiled map[string]*rule.Compiled
	// layout is the record structure under the page element: the
	// repository's enhanced structure, or one leaf per rule in rule order.
	layout []rule.StructureNode

	// stream is the whole repository compiled into one token-stream
	// automaton (nil when any location needs the general evaluator;
	// streamReason says why). scratch pools per-goroutine *streamState.
	stream       *streamx.Program
	streamReason string
	scratch      sync.Pool
}

// streamState is one streaming extraction's reusable state: the
// automaton's scratch and the buffers assembleStream gathers a page's
// values in.
type streamState struct {
	sc *streamx.Scratch
	// text holds the page's normalized values back to back; ends[j] is
	// where value j ends in it.
	text []byte
	ends []int
	// spans[i] is the end of rule i's values in ends, or -1 when the
	// rule matched nothing.
	spans []int
}

// maxRetainedText caps the value text a pooled streamState keeps
// between pages, so one huge page does not pin its buffer.
const maxRetainedText = 1 << 20

// StreamInfo reports which extraction path served a page.
type StreamInfo struct {
	// Attempted is true when the streaming automaton ran (even if it bailed
	// out mid-page).
	Attempted bool
	// Hit is true when the streaming result was used — no DOM was built.
	Hit bool
	// Reason, when Hit is false, names why the page fell back to parse+DOM:
	// a Compile reason (e.g. "general-xpath"), "no-source" (eager page
	// without retained HTML), "parsed-doc" (a tree already existed, so the
	// automaton would only duplicate work), or "depth" (runtime bail).
	Reason string
}

// Fallback reasons owned by the extract layer (compile-time reasons come
// from streamx.Compile).
const (
	StreamReasonNoSource  = "no-source"
	StreamReasonParsedDoc = "parsed-doc"
	StreamReasonDepth     = "depth"
)

// NewProcessor compiles the repository's rules — both the per-rule DOM
// form and, when every location is stream-eligible, the single streaming
// automaton the hot path executes instead of parsing.
func NewProcessor(repo *rule.Repository) (*Processor, error) {
	compiled, err := repo.CompileAll()
	if err != nil {
		return nil, err
	}
	p := &Processor{Repo: repo, compiled: compiled, layout: repo.Structure}
	if len(p.layout) == 0 {
		for _, r := range repo.Rules {
			p.layout = append(p.layout, rule.StructureNode{Name: r.Name, Component: r.Name})
		}
	}
	ordered := make([]*rule.Compiled, len(repo.Rules))
	for i, r := range repo.Rules {
		ordered[i] = compiled[r.Name]
	}
	p.stream, p.streamReason = streamx.Compile(ordered)
	if p.stream != nil {
		prog := p.stream
		p.scratch.New = func() any { return &streamState{sc: prog.NewScratch()} }
	}
	return p, nil
}

// ExtractPage extracts every component of one page into a page element.
// Failures are appended to the returned slice.
func (p *Processor) ExtractPage(page *core.Page) (*Element, []Failure) {
	el, _, failures := p.ExtractPageValues(page)
	return el, failures
}

// ExtractPageValues is ExtractPage returning also the flat per-component
// value map the page element was assembled from. Health monitors use the
// map to harvest last-known-good values without reverse-engineering the
// (possibly aggregated) element structure.
func (p *Processor) ExtractPageValues(page *core.Page) (*Element, map[string][]string, []Failure) {
	el, values, failures, _ := p.ExtractPageValuesInfo(page)
	return el, values, failures
}

// ExtractPageValuesInfo is ExtractPageValues reporting additionally which
// extraction path served the page. Lazy pages (core.NewPageLazy) whose
// repository compiled to a streaming automaton are extracted straight from
// the token stream — results are byte-identical to the DOM path (values,
// failures, aggregate XML), a guarantee the differential fuzz test pins.
func (p *Processor) ExtractPageValuesInfo(page *core.Page) (*Element, map[string][]string, []Failure, StreamInfo) {
	var info StreamInfo
	src, lazy := page.Source()
	switch {
	case p.stream == nil:
		info.Reason = p.streamReason
	case page.Doc != nil:
		// A tree already exists (an eager page, or one a consumer already
		// parsed): streaming would only redo work the parse paid for.
		info.Reason = StreamReasonParsedDoc
	case !lazy:
		info.Reason = StreamReasonNoSource
	default:
		info.Attempted = true
		st := p.scratch.Get().(*streamState)
		if err := p.stream.Run(st.sc, src); err != nil {
			p.scratch.Put(st)
			info.Reason = StreamReasonDepth
			break
		}
		el, values, failures := p.assembleStream(page.URI, st)
		p.scratch.Put(st)
		info.Hit = true
		return el, values, failures, info
	}
	el, values, failures := p.extractDOM(page)
	return el, values, failures, info
}

// ExtractPageStream extracts straight from raw HTML, taking the streaming
// path whenever the repository allows it (StreamInfo says whether it did).
func (p *Processor) ExtractPageStream(uri, src string) (*Element, []Failure, StreamInfo) {
	el, _, failures, info := p.ExtractPageValuesInfo(core.NewPageLazy(uri, src))
	return el, failures, info
}

// extractDOM is the general path: evaluate each compiled rule against the
// parsed tree (materializing it for lazy pages).
func (p *Processor) extractDOM(page *core.Page) (*Element, map[string][]string, []Failure) {
	doc := page.Document()
	var failures []Failure
	values := map[string][]string{}
	for _, r := range p.Repo.Rules {
		c := p.compiled[r.Name]
		nodes := c.ApplyAll(doc)
		if len(nodes) == 0 {
			if r.Optionality == rule.Mandatory {
				failures = append(failures, p.missingFailure(page.URI, r.Name))
			}
			continue
		}
		if r.Multiplicity == rule.SingleValued && len(nodes) > 1 {
			failures = append(failures, p.multipleFailure(page.URI, r.Name, len(nodes)))
			nodes = nodes[:1]
		}
		for _, n := range nodes {
			values[r.Name] = append(values[r.Name], p.values(c, n)...)
		}
	}
	return p.assemble(page.URI, values), values, failures
}

// assembleStream reads the automaton's captures with exactly the DOM
// path's semantics: location priority, mandatory/multiple failure
// detection, single-valued truncation, value rendering in document order.
// The page's normalized values become one string, and its values one
// slice that every component's values are capped sub-slices of (a
// refinement that splits values may start a second one).
func (p *Processor) assembleStream(uri string, st *streamState) (*Element, map[string][]string, []Failure) {
	var failures []Failure
	sc := st.sc
	st.text, st.ends, st.spans = st.text[:0], st.ends[:0], st.spans[:0]
	for i, r := range p.Repo.Rules {
		n := sc.RuleMatches(i)
		if n == 0 {
			if r.Optionality == rule.Mandatory {
				failures = append(failures, p.missingFailure(uri, r.Name))
			}
			st.spans = append(st.spans, -1)
			continue
		}
		maxVals := -1
		if r.Multiplicity == rule.SingleValued && n > 1 {
			failures = append(failures, p.multipleFailure(uri, r.Name, n))
			maxVals = 1
		}
		sc.RuleValues(i, maxVals, func(raw []byte) {
			st.text = textutil.AppendNormalizeSpaceBytes(st.text, raw)
			st.ends = append(st.ends, len(st.text))
		})
		st.spans = append(st.spans, len(st.ends))
	}
	text := string(st.text)
	all := make([]string, 0, len(st.ends))
	values := make(map[string][]string, len(p.Repo.Rules))
	start, j := 0, 0
	for i, r := range p.Repo.Rules {
		if st.spans[i] < 0 {
			continue
		}
		c := p.compiled[r.Name]
		from := len(all)
		for ; j < st.spans[i]; j++ {
			v := text[start:st.ends[j]]
			start = st.ends[j]
			if c.HasRefinement() {
				all = append(all, c.RefineValue(v)...)
			} else {
				all = append(all, v)
			}
		}
		if len(all) > from {
			values[r.Name] = all[from:len(all):len(all)]
		} else {
			// A refinement that kept nothing: the DOM path's nil.
			values[r.Name] = nil
		}
	}
	if cap(st.text) > maxRetainedText {
		st.text = nil
	}
	return p.assemble(uri, values), values, failures
}

func (p *Processor) missingFailure(uri, component string) Failure {
	return Failure{
		PageURI: uri, Component: component,
		Kind:   FailureMissingMandatory,
		Detail: "no node matched any location",
	}
}

func (p *Processor) multipleFailure(uri, component string, n int) Failure {
	return Failure{
		PageURI: uri, Component: component,
		Kind:   FailureMultipleValues,
		Detail: fmt.Sprintf("%d nodes matched a single-valued component", n),
	}
}

// assemble builds the page element from the flat value map — shared by
// both extraction paths so the aggregate XML cannot diverge between them.
// The record is sized first, then built in one slab: its elements, their
// child slices and the uri attribute take one allocation each.
func (p *Processor) assemble(uri string, values map[string][]string) *Element {
	n := 1
	for _, sn := range p.layout {
		n += subtreeSize(sn, values)
	}
	sl := &slab{els: make([]Element, n), kids: make([]*Element, n-1)}
	el := sl.group(p.Repo.PageElementName(), p.layout, values)
	el.Attrs = []Attr{{Name: "uri", Value: uri}}
	return el
}

// slab hands out the elements and child-slice slots of one record.
type slab struct {
	els  []Element
	kids []*Element
}

// group takes the next element of the slab, named name, and builds the
// layout nodes under it (§4: iterative aggregation of component
// elements). Its child slice has room for exactly its children; it is
// nil when there are none, as for an element built child by child.
func (sl *slab) group(name string, layout []rule.StructureNode, values map[string][]string) *Element {
	e := &sl.els[0]
	sl.els = sl.els[1:]
	e.Name = name
	k := 0
	for _, sn := range layout {
		if sn.Component != "" {
			k += len(values[sn.Component])
		} else {
			k += min(subtreeSize(sn, values), 1)
		}
	}
	if k == 0 {
		return e
	}
	e.Children = sl.kids[:0:k]
	sl.kids = sl.kids[k:]
	for _, sn := range layout {
		switch {
		case sn.Component != "":
			for _, v := range values[sn.Component] {
				leaf := sl.group(sn.Name, nil, nil)
				leaf.Text = v
				e.Children = append(e.Children, leaf)
			}
		case subtreeSize(sn, values) > 0:
			// Empty aggregates (all inner components absent) are omitted.
			e.Children = append(e.Children, sl.group(sn.Name, sn.Children, values))
		}
	}
	return e
}

// subtreeSize counts the elements sn puts in a record: its leaves, or
// the aggregate and everything in it (none when it is empty).
func subtreeSize(sn rule.StructureNode, values map[string][]string) int {
	if sn.Component != "" {
		return len(values[sn.Component])
	}
	n := 0
	for _, child := range sn.Children {
		n += subtreeSize(child, values)
	}
	if n == 0 {
		return 0
	}
	return n + 1
}

// values renders one component value node as its extracted string(s):
// whitespace normalization, then the rule's intra-node refinement (§7
// regex/split extension).
func (p *Processor) values(c *rule.Compiled, n *dom.Node) []string {
	return c.RefineValue(textutil.NormalizeSpace(xpath.NodeStringValue(n)))
}

// ExtractCluster extracts every page into the three-level (or enhanced)
// document rooted at the cluster element.
func (p *Processor) ExtractCluster(pages []*core.Page) (*Element, []Failure) {
	root := NewElement(p.Repo.Cluster)
	var failures []Failure
	for _, page := range pages {
		el, fs := p.ExtractPage(page)
		root.Add(el)
		failures = append(failures, fs...)
	}
	return root, failures
}
