package core

import (
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/rule"
)

func TestFindContextLabel(t *testing.T) {
	sample := paperSample()
	label, ok := findContextLabel("runtime", sample, runtimeOracle())
	if !ok || label != "Runtime:" {
		t.Fatalf("label = %q, ok=%v", label, ok)
	}
}

func TestFindContextLabelInconsistent(t *testing.T) {
	// Different labels across pages: no constant context exists.
	p1 := NewPage("p1", `<html><body><b>Price:</b> 10 <br></body></html>`)
	p2 := NewPage("p2", `<html><body><b>Cost:</b> 12 <br></body></html>`)
	oracle := OracleFunc(func(component string, p *Page) []*dom.Node {
		b := dom.FindFirst(p.Doc, func(n *dom.Node) bool { return n.TagIs("b") })
		for s := b.NextSibling; s != nil; s = s.NextSibling {
			if s.Type == dom.TextNode {
				return []*dom.Node{s}
			}
		}
		return nil
	})
	if _, ok := findContextLabel("price", Sample{p1, p2}, oracle); ok {
		t.Error("inconsistent labels must not produce a context")
	}
}

func TestFindContextLabelNoPrecedingText(t *testing.T) {
	// The very first text in the document has no preceding label.
	p := NewPage("p1", `<html><body><h1>Value</h1></body></html>`)
	oracle := OracleFunc(func(component string, pg *Page) []*dom.Node {
		h := dom.FindFirst(pg.Doc, func(n *dom.Node) bool { return n.TagIs("h1") })
		return []*dom.Node{h.FirstChild}
	})
	if _, ok := findContextLabel("title", Sample{p}, oracle); ok {
		t.Error("value without preceding text must not produce a context")
	}
}

func TestPrecedingLabelSkipsWhitespaceAndTags(t *testing.T) {
	p := NewPage("p", `<html><body><div><span><b>Label:</b></span></div><p>value</p></body></html>`)
	val := dom.FindFirst(p.Doc, func(n *dom.Node) bool {
		return n.Type == dom.TextNode && n.Data == "value"
	})
	if got := precedingLabel(val); got != "Label:" {
		t.Errorf("precedingLabel = %q", got)
	}
}

func TestContextCandidatesEscalation(t *testing.T) {
	primary := Path{Steps: []Step{
		{Test: "BODY", Index: 1},
		{Test: "TABLE", Index: 1},
		{Test: "TR", Index: 6},
		{Test: "TD", Index: 1},
		{Test: "text()", Index: 1},
	}}
	cands := contextCandidates(primary, "Runtime:")
	if len(cands) != 3 {
		t.Fatalf("levels = %d", len(cands))
	}
	l1, l2, l3 := cands[0].String(), cands[1].String(), cands[2].String()
	if !strings.HasPrefix(l1, "BODY[1]/TABLE[1]/TR[6]/TD[1]/text()[preceding::text()") {
		t.Errorf("level 1 = %s", l1)
	}
	if l2 != "BODY//TD/text()[preceding::text()[1][contains(., 'Runtime:')]]" {
		t.Errorf("level 2 = %s", l2)
	}
	if l3 != "BODY//text()[preceding::text()[1][contains(., 'Runtime:')]]" {
		t.Errorf("level 3 = %s", l3)
	}
	// Each candidate must compile.
	for i, c := range cands {
		if _, err := c.Compile(); err != nil {
			t.Errorf("level %d does not compile: %v", i+1, err)
		}
	}
}

func TestAltPathDeduplication(t *testing.T) {
	// refineAltPath must not append a duplicate location (would loop).
	sample := Sample{
		NewPage("p1", `<html><body><p>v1</p></body></html>`),
		NewPage("p2", `<html><body><div><p>v2</p></div></body></html>`),
	}
	oracle := OracleFunc(func(component string, p *Page) []*dom.Node {
		pe := dom.FindFirst(p.Doc, func(n *dom.Node) bool { return n.TagIs("p") })
		return []*dom.Node{pe.FirstChild}
	})
	b := &Builder{Sample: sample, Oracle: oracle, DisableContext: true}
	res, err := b.BuildRule("v")
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("should converge via alternative path: %v", res.Actions)
	}
	if len(res.Rule.Locations) != 2 {
		t.Errorf("locations = %v", res.Rule.Locations)
	}
	seen := map[string]bool{}
	for _, loc := range res.Rule.Locations {
		if seen[loc] {
			t.Errorf("duplicate location %q", loc)
		}
		seen[loc] = true
	}
}

func TestBuildRuleIterationCap(t *testing.T) {
	// An oracle that points at a *different* node each call can never be
	// satisfied; the loop must terminate at MaxIterations.
	page := NewPage("p", `<html><body><p>a</p><p>b</p><p>c</p><p>d</p></body></html>`)
	call := 0
	oracle := OracleFunc(func(component string, p *Page) []*dom.Node {
		ps := dom.FindAll(p.Doc, func(n *dom.Node) bool { return n.TagIs("p") })
		call++
		return []*dom.Node{ps[call%len(ps)].FirstChild}
	})
	b := &Builder{Sample: Sample{page}, Oracle: oracle, MaxIterations: 3}
	res, err := b.BuildRule("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) > 3 {
		t.Errorf("loop ran %d checks, cap is 3", len(res.Reports))
	}
}

func TestRefineMultivaluedSharedParentTextNodes(t *testing.T) {
	// Instances that are text children of one parent (no repetitive
	// element between them) diverge at the text() step itself.
	p := NewPage("p", `<html><body><td>alpha<br>beta<br>gamma<br></td></body></html>`)
	oracle := OracleFunc(func(component string, pg *Page) []*dom.Node {
		var out []*dom.Node
		dom.Walk(pg.Doc, func(n *dom.Node) bool {
			if n.Type == dom.TextNode {
				out = append(out, n)
			}
			return true
		})
		return out
	})
	b := &Builder{Sample: Sample{p}, Oracle: oracle}
	res, err := b.BuildRule("item")
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("did not converge: %v\n%s", res.Actions, res.Rule.String())
	}
	if res.Rule.Multiplicity != rule.Multivalued {
		t.Error("text-sibling instances must become multivalued")
	}
	c, _ := res.Rule.Compile()
	if got := c.Apply(p.Doc); len(got) != 3 {
		t.Errorf("applied rule found %d values", len(got))
	}
}

func TestVerdictStringNames(t *testing.T) {
	names := map[Verdict]string{
		VerdictMatch:      "match",
		VerdictVoid:       "void",
		VerdictUnexpected: "unexpected",
		VerdictIncomplete: "incomplete",
		VerdictNeedsMulti: "needs-multivalued",
		VerdictAbsent:     "absent",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
}

func TestCheckRejectsInvalidRule(t *testing.T) {
	bad := rule.Rule{Name: "9bad"}
	if _, err := Check(bad, paperSample(), runtimeOracle()); err == nil {
		t.Error("Check must reject invalid rules")
	}
}

func TestCandidateRejectsInvalidName(t *testing.T) {
	b := &Builder{Sample: paperSample(), Oracle: runtimeOracle()}
	if _, _, err := b.Candidate("not a name"); err == nil {
		t.Error("Candidate must validate the component name")
	}
}

func TestPathToRejectsBadNodes(t *testing.T) {
	if _, ok := PathTo(nil); ok {
		t.Error("nil node")
	}
	doc := dom.NewDocument()
	if _, ok := PathTo(doc); ok {
		t.Error("document node")
	}
	attr := &dom.Node{Type: dom.AttributeNode, Data: "href"}
	if _, ok := PathTo(attr); ok {
		t.Error("attribute node")
	}
}

func TestPathToDetachedFragment(t *testing.T) {
	// A node inside a detached fragment still gets a usable path anchored
	// at the fragment root.
	doc := dom.Parse(`<table><tr><td>x</td></tr></table>`)
	frag := dom.FindFirst(doc, func(n *dom.Node) bool { return n.TagIs("table") })
	frag.Parent.RemoveChild(frag)
	td := dom.FindFirst(frag, func(n *dom.Node) bool { return n.TagIs("td") })
	p, ok := PathTo(td)
	if !ok {
		t.Fatal("detached path failed")
	}
	if !strings.Contains(p.String(), "TR[1]/TD[1]") {
		t.Errorf("fragment path = %s", p.String())
	}
}

func TestOptionalAndShiftCombination(t *testing.T) {
	// language is optional AND its position shifts when AKA is present:
	// both optionality and context refinement must fire.
	mk := func(uri string, aka, lang bool) *Page {
		var b strings.Builder
		b.WriteString(`<html><body><td>`)
		if aka {
			b.WriteString(`<b>Also Known As:</b> Other Title <br>`)
		}
		b.WriteString(`<b>Runtime:</b> 100 min <br>`)
		if lang {
			b.WriteString(`<b>Language:</b> English <br>`)
		}
		b.WriteString(`<b>Country:</b> USA <br>`)
		b.WriteString(`</td></body></html>`)
		return NewPage(uri, b.String())
	}
	sample := Sample{
		mk("p1", false, true),
		mk("p2", true, true),
		mk("p3", false, false),
		mk("p4", true, false),
	}
	oracle := OracleFunc(func(component string, p *Page) []*dom.Node {
		lbl := dom.FindFirst(p.Doc, func(n *dom.Node) bool {
			return n.Type == dom.TextNode && strings.TrimSpace(n.Data) == "Language:"
		})
		if lbl == nil {
			return nil
		}
		for s := lbl.Parent.NextSibling; s != nil; s = s.NextSibling {
			if s.Type == dom.TextNode && strings.TrimSpace(s.Data) != "" {
				return []*dom.Node{s}
			}
		}
		return nil
	})
	b := &Builder{Sample: sample, Oracle: oracle}
	res, err := b.BuildRule("language")
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("not converged: %v\n%s", res.Actions, res.FinalReport().Table())
	}
	if res.Rule.Optionality != rule.Optional {
		t.Error("must become optional")
	}
	if !strings.Contains(strings.Join(res.Rule.Locations, " "), "Language:") {
		t.Error("must use the contextual label")
	}
	// The rule must select nothing on pages without the component even
	// though positions shift.
	c, _ := res.Rule.Compile()
	if got := c.Apply(sample[3].Doc); len(got) != 0 {
		t.Errorf("rule selects %v on a page without language", got)
	}
}
