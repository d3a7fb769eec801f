package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/extract"
	"repro/internal/rule"
)

// relocate maps a component's ground-truth nodes from the original
// cluster page (matched by URI) into the drifted clone via their precise
// paths. A relabeled label does not move the value node, so the paths
// still resolve.
func relocate(cl *corpus.Cluster, p *core.Page, component string) []*dom.Node {
	var orig *core.Page
	for _, op := range cl.Pages {
		if op.URI == p.URI {
			orig = op
			break
		}
	}
	if orig == nil {
		return nil
	}
	var out []*dom.Node
	for _, n := range cl.Truth(orig, component) {
		path, ok := core.PathTo(n)
		if !ok {
			continue
		}
		c, err := path.Compile()
		if err != nil {
			continue
		}
		if m := c.SelectLocation(p.Doc); len(m) > 0 {
			out = append(out, m[0])
		}
	}
	return out
}

// TestRepairAfterDrift closes the §7 loop: rules induced on the original
// site fail after a relabeling drift; extraction detects the failures;
// repair rebuilds the broken rule from fresh selections and extraction
// recovers.
func TestRepairAfterDrift(t *testing.T) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(2024, 40))
	sample, _ := cl.RepresentativeSplit(10)
	b := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	if _, err := b.BuildAll(repo, []string{"runtime", "title"}); err != nil {
		t.Fatal(err)
	}

	// Drift: every page renames the label preceding the runtime value.
	drifted, injected := corpus.InjectDrift(cl, "runtime", corpus.DriftRelabel, 1.0, 5)
	if len(injected) == 0 {
		t.Fatal("no drift injected")
	}
	proc, err := extract.NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}
	_, failures := proc.ExtractCluster(drifted)
	if len(failures) == 0 {
		t.Fatal("drift must surface as extraction failures")
	}

	// Repair against the drifted pages. The oracle must answer on the
	// drifted trees: relocate ground truth via precise paths.
	driftedOracle := core.OracleFunc(func(component string, p *core.Page) []*dom.Node {
		return relocate(cl, p, component)
	})
	rb := &core.Builder{Sample: core.Sample(drifted[:10]), Oracle: driftedOracle}
	results := map[string]core.RepairResult{}
	for _, name := range repo.ComponentNames() {
		r, _ := repo.Lookup(name)
		res, err := rb.RepairRule(*r, false)
		if err != nil {
			t.Fatal(err)
		}
		results[name] = res
		if res.Outcome == core.RepairRebuilt {
			if err := repo.Record(res.Rule); err != nil {
				t.Fatal(err)
			}
		}
	}
	if results["title"].Outcome != core.RepairUnchanged {
		t.Errorf("title outcome = %v, want unchanged", results["title"].Outcome)
	}
	if results["runtime"].Outcome != core.RepairRebuilt {
		t.Fatalf("runtime outcome = %v, want rebuilt (rule: %s)",
			results["runtime"].Outcome, func() string { r := results["runtime"].Rule; return r.String() }())
	}

	// Extraction over the drifted site now succeeds.
	proc2, err := extract.NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}
	_, failures2 := proc2.ExtractCluster(drifted)
	for _, f := range failures2 {
		if f.Component == "runtime" {
			t.Errorf("runtime still failing after repair: %v", f)
		}
	}
}

func TestRepairOutcomeString(t *testing.T) {
	if core.RepairUnchanged.String() != "unchanged" ||
		core.RepairRebuilt.String() != "rebuilt" ||
		core.RepairFailed.String() != "failed" {
		t.Error("outcome names")
	}
}
