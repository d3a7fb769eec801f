// Package corpus generates synthetic data-intensive Web sites with
// controlled structural discrepancies and exact ground truth. It replaces
// the live imdb.com pages the paper worked on (and the human operator
// pointing at values) with a deterministic, seedable equivalent that
// exercises every discrepancy class of §3.4:
//
//   - optional fields that shift the positions of later content
//     (the "Also Known As:" effect of Figure 4);
//   - components missing from some pages (optionality);
//   - multivalued components with varying instance counts;
//   - values that are pure text in some pages and text+markup in others
//     (format promotion);
//   - alternative page layouts inside one cluster (alternative paths);
//   - configurable nesting depth (flat vs fine-grained documents, §7).
//
// Every generated page carries a ground-truth map from component name to
// the exact DOM nodes of its value, which backs the scripted Oracle.
package corpus

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/rule"
	"repro/internal/textutil"
	"repro/internal/xpath"
)

// ComponentSpec declares a component of a generated cluster together with
// the properties a correctly induced rule should end up with — the
// reference answer for the experiments.
type ComponentSpec struct {
	Name         string
	Optionality  rule.Optionality
	Multiplicity rule.Multiplicity
	Format       rule.Format
}

// Cluster is a generated page cluster: pages, per-page ground truth and
// the component inventory.
type Cluster struct {
	Name       string
	Pages      []*core.Page
	Components []ComponentSpec
	truth      map[*core.Page]map[string][]*dom.Node
}

// Truth returns the ground-truth value nodes of a component in a page
// (nil when absent).
func (c *Cluster) Truth(p *core.Page, component string) []*dom.Node {
	m := c.truth[p]
	if m == nil {
		return nil
	}
	return m[component]
}

// TruthStrings returns the normalized string values of a component in a
// page — the representation used for file-based evaluation where node
// identity is unavailable.
func (c *Cluster) TruthStrings(p *core.Page, component string) []string {
	nodes := c.Truth(p, component)
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, textutil.NormalizeSpace(xpath.NodeStringValue(n)))
	}
	return out
}

// Oracle returns the scripted stand-in for the human operator: selecting
// a component value in a page answers straight from ground truth.
func (c *Cluster) Oracle() core.Oracle {
	return core.OracleFunc(func(component string, p *core.Page) []*dom.Node {
		return c.Truth(p, component)
	})
}

// ComponentNames lists the cluster's components in declaration order.
func (c *Cluster) ComponentNames() []string {
	out := make([]string, len(c.Components))
	for i, s := range c.Components {
		out[i] = s.Name
	}
	return out
}

// Split partitions the cluster's pages into a working sample of size k and
// a held-out evaluation set, preserving order (pages are already shuffled
// at generation time).
func (c *Cluster) Split(k int) (sample core.Sample, held []*core.Page) {
	if k > len(c.Pages) {
		k = len(c.Pages)
	}
	return core.Sample(c.Pages[:k]), c.Pages[k:]
}

// Short aliases keep the generator code readable.
type (
	corePage = core.Page
	domNode  = dom.Node
)

func attr(k, v string) dom.Attribute { return dom.Attribute{Key: k, Val: v} }

// pageBuilder accumulates a page under construction together with its
// ground truth.
type pageBuilder struct {
	doc   *dom.Node
	body  *dom.Node
	truth map[string][]*dom.Node
}

func newPageBuilder() *pageBuilder {
	doc := dom.NewDocument()
	html := dom.NewElement("HTML")
	doc.AppendChild(html)
	head := dom.NewElement("HEAD")
	html.AppendChild(head)
	body := dom.NewElement("BODY")
	html.AppendChild(body)
	return &pageBuilder{doc: doc, body: body, truth: map[string][]*dom.Node{}}
}

func (pb *pageBuilder) record(component string, nodes ...*dom.Node) {
	pb.truth[component] = append(pb.truth[component], nodes...)
}

// el creates an element, appends it to parent and returns it.
func el(parent *dom.Node, tag string, attrs ...dom.Attribute) *dom.Node {
	e := dom.NewElement(tag, attrs...)
	parent.AppendChild(e)
	return e
}

// txt creates a text node under parent and returns it.
func txt(parent *dom.Node, s string) *dom.Node {
	t := dom.NewText(s)
	parent.AppendChild(t)
	return t
}

// labeled appends `<B>label</B> value <BR>` to parent, returning the value
// text node — the info-row idiom of Figure 4.
func labeled(parent *dom.Node, label, value string) *dom.Node {
	b := el(parent, "B")
	txt(b, label)
	v := txt(parent, " "+value+" ")
	el(parent, "BR")
	return v
}

// wrapDepth nests content inside depth extra DIV levels — the knob for the
// fine-grained vs flat structure experiment (§7).
func wrapDepth(parent *dom.Node, depth int) *dom.Node {
	cur := parent
	for i := 0; i < depth; i++ {
		cur = el(cur, "DIV", dom.Attribute{Key: "class", Val: fmt.Sprintf("lvl%d", i)})
	}
	return cur
}

// finish renders the built page. reparse=true serializes and re-parses the
// document so that the checked tree went through the real HTML pipeline;
// ground-truth pointers are re-resolved into the fresh tree via their
// precise paths, keeping node identity consistent with what rule
// evaluation sees.
func (pb *pageBuilder) finish(uri string, reparse bool) (*core.Page, map[string][]*dom.Node) {
	if !reparse {
		return &core.Page{URI: uri, Doc: pb.doc}, pb.truth
	}
	html := dom.Render(pb.doc)
	doc2 := dom.Parse(html)
	truth2 := make(map[string][]*dom.Node, len(pb.truth))
	for comp, nodes := range pb.truth {
		for _, n := range nodes {
			p, ok := core.PathTo(n)
			if !ok {
				continue
			}
			c, err := p.Compile()
			if err != nil {
				continue
			}
			if m := c.SelectLocation(doc2); len(m) > 0 {
				truth2[comp] = append(truth2[comp], m[0])
			}
		}
	}
	return &core.Page{URI: uri, Doc: doc2}, truth2
}

// rng returns a deterministic source for a seed.
func rng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
