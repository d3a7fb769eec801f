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

	// stream is the whole repository compiled into one token-stream
	// automaton (nil when any location needs the general evaluator;
	// streamReason says why). scratch pools per-goroutine execution state.
	stream       *streamx.Program
	streamReason string
	scratch      sync.Pool
}

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
	p := &Processor{Repo: repo, compiled: compiled}
	ordered := make([]*rule.Compiled, len(repo.Rules))
	for i, r := range repo.Rules {
		ordered[i] = compiled[r.Name]
	}
	p.stream, p.streamReason = streamx.Compile(ordered)
	if p.stream != nil {
		prog := p.stream
		p.scratch.New = func() any { return prog.NewScratch() }
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
		// A tree already exists (page-cache hit or eager page): streaming
		// would only redo work the parse already paid for.
		info.Reason = StreamReasonParsedDoc
	case !lazy:
		info.Reason = StreamReasonNoSource
	default:
		info.Attempted = true
		sc := p.scratch.Get().(*streamx.Scratch)
		if err := p.stream.Run(sc, src); err != nil {
			p.scratch.Put(sc)
			info.Reason = StreamReasonDepth
			break
		}
		el, values, failures := p.assembleStream(page.URI, sc)
		p.scratch.Put(sc)
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
func (p *Processor) assembleStream(uri string, sc *streamx.Scratch) (*Element, map[string][]string, []Failure) {
	var failures []Failure
	values := map[string][]string{}
	for i, r := range p.Repo.Rules {
		c := p.compiled[r.Name]
		n := sc.RuleMatches(i)
		if n == 0 {
			if r.Optionality == rule.Mandatory {
				failures = append(failures, p.missingFailure(uri, r.Name))
			}
			continue
		}
		maxVals := -1
		want := n
		if r.Multiplicity == rule.SingleValued && n > 1 {
			failures = append(failures, p.multipleFailure(uri, r.Name, n))
			maxVals, want = 1, 1
		}
		if !c.HasRefinement() {
			// Unrefined rule: each capture is exactly one value, so the
			// slice is sized up front and the only string materialized per
			// value is the normalized one, straight out of the scratch
			// arena.
			vals := make([]string, 0, want)
			sc.RuleValues(i, maxVals, func(raw []byte) {
				vals = append(vals, textutil.NormalizeSpaceBytes(raw))
			})
			values[r.Name] = vals
			continue
		}
		sc.RuleValues(i, maxVals, func(raw []byte) {
			values[r.Name] = append(values[r.Name], c.RefineValue(textutil.NormalizeSpaceBytes(raw))...)
		})
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
func (p *Processor) assemble(uri string, values map[string][]string) *Element {
	el := NewElement(p.Repo.PageElementName())
	el.SetAttr("uri", uri)
	if len(p.Repo.Structure) > 0 {
		for _, sn := range p.Repo.Structure {
			buildStructured(el, sn, values)
		}
	} else {
		// Default flat structure: components in rule order.
		for _, r := range p.Repo.Rules {
			for _, v := range values[r.Name] {
				leaf := el.Add(NewElement(r.Name))
				leaf.Text = v
			}
		}
	}
	return el
}

// buildStructured emits the enhanced nested structure recorded in the
// repository (§4: iterative aggregation of component elements).
func buildStructured(parent *Element, sn rule.StructureNode, values map[string][]string) {
	if sn.Component != "" {
		for _, v := range values[sn.Component] {
			leaf := parent.Add(NewElement(sn.Name))
			leaf.Text = v
		}
		return
	}
	group := NewElement(sn.Name)
	for _, child := range sn.Children {
		buildStructured(group, child, values)
	}
	// Empty aggregates (all inner components absent) are omitted.
	if len(group.Children) > 0 {
		parent.Add(group)
	}
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
