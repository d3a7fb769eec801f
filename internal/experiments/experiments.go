// Package experiments regenerates every table and figure of the paper's
// exposition plus the quantitative studies its claims imply. Each
// experiment is a pure function returning a Report; cmd/evaluate prints
// them and the benchmark harness re-runs them under testing.B.
//
// `go run ./cmd/evaluate -list` prints the experiment IDs, and README
// "Paper walkthrough" shows how to regenerate one. Each Report's Metrics
// carry the expected shapes (who wins, where curves flatten) that the
// benchmark harness asserts.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/rule"
	"repro/internal/xpath"
)

// Report is one regenerated artifact.
type Report struct {
	ID    string
	Title string
	Text  string
	// Metrics holds the headline numbers for programmatic assertions
	// (benchmarks fail the run when a shape property breaks).
	Metrics map[string]float64
}

// All runs every experiment in paper order.
func All() []Report {
	return []Report{
		FigureOnePipeline(),
		TableOneCandidateCheck(),
		TableTwoXPathShapes(),
		TableThreeRefined(),
		FigureThreeScenario(),
		FigureFiveXML(),
		SchemaGeneration(),
		TableFourFeatures(),
		Convergence(),
		BaselineComparison(),
		NestingDepth(),
		FailureDetection(),
	}
}

// ByID returns the experiment with the given ID (case-insensitive).
func ByID(id string) (Report, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Report{}, false
}

// IDs lists the available experiment IDs.
func IDs() []string {
	var out []string
	for _, r := range All() {
		out = append(out, r.ID)
	}
	return out
}

// ---------------------------------------------------------------------------
// Shared fixtures and scoring helpers.

// PaperSample reproduces the 4-page working sample of Table 1 / Figure 4:
// two regular pages, one page with the "Also Known As:" shift, and one
// page whose info row sits at a different index.
func PaperSample() core.Sample {
	mk := func(uri, aka, runtime, country string, filler int) *core.Page {
		var b strings.Builder
		b.WriteString("<html><body><table>")
		for i := 0; i < filler; i++ {
			b.WriteString("<tr><td>filler</td></tr>")
		}
		b.WriteString("<tr><td>")
		if aka != "" {
			b.WriteString("<b>Also Known As:</b> " + aka + " <br>")
		}
		b.WriteString("<b>Runtime:</b> " + runtime + " <br>")
		b.WriteString("<b>Country:</b> " + country + " <br>")
		b.WriteString("</td></tr></table></body></html>")
		return core.NewPage(uri, b.String())
	}
	return core.Sample{
		mk("./title/tt0095159/", "", "108 min", "USA/UK", 5),
		mk("./title/tt0071853/", "", "91 min", "UK", 5),
		mk("./title/tt0074103/", "The Wing and the Thigh (International: English title)", "104 min", "France", 5),
		mk("./title/tt0102059/", "", "84 min", "Italy", 3),
	}
}

// PaperOracle is the scripted operator for PaperSample: it points at the
// text node after the <B>Runtime:</B> label.
func PaperOracle() core.Oracle {
	return core.OracleFunc(func(component string, p *core.Page) []*dom.Node {
		if component != "runtime" {
			return nil
		}
		lbl := dom.FindFirst(p.Doc, func(n *dom.Node) bool {
			return n.Type == dom.TextNode && strings.TrimSpace(n.Data) == "Runtime:"
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
}

// Score holds precision/recall/F1 counts for value-level evaluation.
type Score struct {
	TP, Predicted, Truth int
}

// Add accumulates another score.
func (s *Score) Add(o Score) {
	s.TP += o.TP
	s.Predicted += o.Predicted
	s.Truth += o.Truth
}

// Precision returns TP/Predicted (1 when nothing was predicted and
// nothing was true).
func (s Score) Precision() float64 {
	if s.Predicted == 0 {
		if s.Truth == 0 {
			return 1
		}
		return 0
	}
	return float64(s.TP) / float64(s.Predicted)
}

// Recall returns TP/Truth.
func (s Score) Recall() float64 {
	if s.Truth == 0 {
		if s.Predicted == 0 {
			return 1
		}
		return 0
	}
	return float64(s.TP) / float64(s.Truth)
}

// F1 returns the harmonic mean of precision and recall.
func (s Score) F1() float64 {
	p, r := s.Precision(), s.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// scoreValues compares predicted against truth values as multisets.
func scoreValues(predicted, truth []string) Score {
	sc := Score{Predicted: len(predicted), Truth: len(truth)}
	remaining := map[string]int{}
	for _, t := range truth {
		remaining[t]++
	}
	for _, p := range predicted {
		if remaining[p] > 0 {
			remaining[p]--
			sc.TP++
		}
	}
	return sc
}

// evalRules scores a set of compiled rules against ground truth on the
// given pages, per component.
func evalRules(cl *corpus.Cluster, compiled map[string]*rule.Compiled, pages []*core.Page) map[string]Score {
	out := map[string]Score{}
	for _, p := range pages {
		for name, c := range compiled {
			var predicted []string
			for _, n := range c.Apply(p.Doc) {
				predicted = append(predicted, normalizeValue(n))
			}
			sc := out[name]
			s := scoreValues(predicted, cl.TruthStrings(p, name))
			sc.Add(s)
			out[name] = sc
		}
	}
	return out
}

func normalizeValue(n *dom.Node) string {
	return strings.Join(strings.Fields(xpath.NodeStringValue(n)), " ")
}

// buildRepo induces rules for every component of a cluster from the given
// sample and returns the repository, the per-component build results and
// the compiled rules. Unlike the interactive scenario (which records only
// validated rules), the evaluation deploys the *final* rule of every
// build so that non-converged components count against accuracy instead
// of silently vanishing from the mean.
func buildRepo(cl *corpus.Cluster, sample core.Sample, b *core.Builder) (*rule.Repository, map[string]core.BuildResult, map[string]*rule.Compiled, error) {
	b.Sample = sample
	b.Oracle = cl.Oracle()
	repo := rule.NewRepository(cl.Name)
	results := make(map[string]core.BuildResult)
	for _, comp := range cl.ComponentNames() {
		res, err := b.BuildRule(comp)
		if err != nil {
			return nil, nil, nil, err
		}
		results[comp] = res
		if res.Rule.Validate() == nil {
			if err := repo.Record(res.Rule); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	compiled, err := repo.CompileAll()
	if err != nil {
		return nil, nil, nil, err
	}
	return repo, results, compiled, nil
}

// meanF1 averages the F1 over components.
func meanF1(scores map[string]Score) float64 {
	if len(scores) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range scores {
		total += s.F1()
	}
	return total / float64(len(scores))
}

// shuffled returns a deterministic permutation of pages.
func shuffled(pages []*core.Page, seed int64) []*core.Page {
	out := make([]*core.Page, len(pages))
	copy(out, pages)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func fmtPct(f float64) string { return fmt.Sprintf("%5.1f%%", 100*f) }
