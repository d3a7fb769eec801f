package lifecycle

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/rule"
)

// ComponentOutcome reports what the repair pass did to one rule.
type ComponentOutcome struct {
	// Outcome is "healthy" (no failure observed, rule untouched),
	// "unchanged", "rebuilt", "failed" (rebuild did not converge; old
	// rule kept), "skipped" (no golden evidence to rebuild from) or
	// "error".
	Outcome string `json:"outcome"`
	// Actions is the refinement trace of a rebuild, for the operator log.
	Actions []string `json:"actions,omitempty"`
	Detail  string   `json:"detail,omitempty"`
}

// Report is the outcome of one repair pass: which rules were rebuilt and
// how the candidate repository shadow-evaluates against the retained
// sample buffer, compared with the currently active repository.
type Report struct {
	SamplePages    int                         `json:"samplePages"`
	FailingSampled int                         `json:"failingSampled"`
	Components     map[string]ComponentOutcome `json:"components"`
	// FailingBefore/After count buffer pages with ≥1 detected failure
	// under the current and the candidate repository.
	FailingBefore int `json:"failingBefore"`
	FailingAfter  int `json:"failingAfter"`
	// GoldenMismatches counts (page, component) pairs where the candidate
	// extracts values different from the remembered golden values.
	GoldenMismatches int `json:"goldenMismatches"`
	// Improved is the promotion criterion: strictly fewer failing pages.
	Improved bool `json:"improved"`
}

// goldenLookup returns the core.ValueOracle lookup over a sample set.
func goldenLookup(samples []*Sample) func(uri string) map[string][]string {
	byURI := make(map[string]map[string][]string, len(samples))
	for _, s := range samples {
		byURI[s.Page.URI] = s.Golden
	}
	return func(uri string) map[string][]string { return byURI[uri] }
}

// Repair drives the §7 recovery against the retained buffer: the failing
// pages are the negative examples, core.ValueOracle replaces the
// operator, core.Repair re-checks and rebuilds the broken rules, and the
// candidate repository is shadow-evaluated over the whole buffer. The
// currently active repository is never mutated — the candidate is a deep
// copy the caller can stage and promote if the report says Improved.
//
// curProc is the compiled processor of `current` (compiled here when
// nil); passing the active entry's processor avoids a recompile.
func (m *Monitor) Repair(current *rule.Repository, curProc *extract.Processor) (*rule.Repository, *Report, error) {
	samples := m.snapshotSamples()
	var failing []*Sample
	for _, s := range samples {
		if s.Failing {
			failing = append(failing, s)
		}
	}
	if len(failing) == 0 {
		return nil, nil, fmt.Errorf("lifecycle: no failing pages buffered; nothing to repair from")
	}

	// Working sample: failing pages first (the negative examples), padded
	// with passing pages so a rebuilt rule must keep working where the
	// old one did. snapshotSamples already orders failing-first.
	take := m.cfg.RepairSample
	if take > len(samples) {
		take = len(samples)
	}
	chosen := samples[:take]
	report := &Report{Components: map[string]ComponentOutcome{}}
	report.SamplePages = len(chosen)
	for _, s := range chosen {
		if s.Failing {
			report.FailingSampled++
		}
	}

	pages := make(core.Sample, len(chosen))
	goldenSeen := map[string]bool{}
	for i, s := range chosen {
		pages[i] = s.Page
		for comp, vals := range s.Golden {
			if len(vals) > 0 {
				goldenSeen[comp] = true
			}
		}
	}
	// Only rules with observed failures are re-checked and rebuilt: the
	// live monitor already vouches for the others page after page, and
	// re-deriving a healthy rule from value matches alone risks breaking
	// it when a value happens to appear twice on a page.
	failingComp := map[string]bool{}
	for _, s := range samples {
		for _, f := range s.Failures {
			failingComp[f.Component] = true
		}
	}
	oracle := core.ValueOracle(goldenLookup(samples))
	builder := &core.Builder{Sample: pages, Oracle: oracle}

	candidate := current.Clone()
	for i := range candidate.Rules {
		r := &candidate.Rules[i]
		if !failingComp[r.Name] {
			report.Components[r.Name] = ComponentOutcome{Outcome: "healthy"}
			continue
		}
		if !goldenSeen[r.Name] && r.Optionality == rule.Mandatory {
			// No remembered values anywhere: a rebuild would have no
			// selections to start from, and re-checking a mandatory rule
			// against an all-absent oracle would force a doomed rebuild.
			report.Components[r.Name] = ComponentOutcome{
				Outcome: "skipped", Detail: "no golden values buffered",
			}
			continue
		}
		if !componentPresent(oracle, r.Name, pages) {
			// The golden values locate the component in none of the
			// sampled pages: the site stopped publishing the field
			// (§3.4's remove-mandatory evolution). The refinement is
			// optionality, not a rebuild.
			if r.Optionality == rule.Mandatory {
				r.Optionality = rule.Optional
				report.Components[r.Name] = ComponentOutcome{
					Outcome: "rebuilt",
					Actions: []string{"set optionality=optional (component vanished from every sampled page)"},
				}
			} else {
				report.Components[r.Name] = ComponentOutcome{Outcome: "unchanged"}
			}
			continue
		}
		res, err := builder.RepairRule(*r, false)
		if err != nil {
			report.Components[r.Name] = ComponentOutcome{Outcome: "error", Detail: err.Error()}
			continue
		}
		out := ComponentOutcome{Outcome: res.Outcome.String()}
		if res.Build != nil {
			out.Actions = res.Build.Actions
		}
		report.Components[r.Name] = out
		if res.Outcome == core.RepairRebuilt {
			*r = res.Rule
		}
	}
	if err := candidate.Validate(); err != nil {
		return nil, report, fmt.Errorf("lifecycle: repaired repository invalid: %w", err)
	}

	// Shadow evaluation over the whole buffer.
	if curProc == nil {
		var err error
		curProc, err = extract.NewProcessor(current)
		if err != nil {
			return nil, report, err
		}
	}
	candProc, err := extract.NewProcessor(candidate)
	if err != nil {
		return nil, report, err
	}
	for _, s := range samples {
		if _, fails := curProc.ExtractPage(s.Page); len(fails) > 0 {
			report.FailingBefore++
		}
		_, values, fails := candProc.ExtractPageValues(s.Page)
		if len(fails) > 0 {
			report.FailingAfter++
		}
		for comp, want := range s.Golden {
			if len(want) > 0 && !equalValues(values[comp], want) {
				report.GoldenMismatches++
			}
		}
	}
	report.Improved = report.FailingAfter < report.FailingBefore
	rebuilt := 0
	for _, c := range report.Components {
		if c.Outcome == "rebuilt" {
			rebuilt++
		}
	}
	m.logger().Info("repair.report",
		"samplePages", report.SamplePages, "failingSampled", report.FailingSampled,
		"rebuilt", rebuilt, "failingBefore", report.FailingBefore,
		"failingAfter", report.FailingAfter, "improved", report.Improved)
	return candidate, report, nil
}

// componentPresent reports whether the oracle locates the component in
// at least one sample page.
func componentPresent(o core.Oracle, component string, pages core.Sample) bool {
	for _, p := range pages {
		if len(o.Select(component, p)) > 0 {
			return true
		}
	}
	return false
}

func equalValues(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// Verdicts runs the §3.4 check taxonomy over the buffered failing pages:
// every rule of the repository is applied via core.Check with the golden
// values standing in for the operator, and the verdict counts are
// returned per component. This is the drill-down behind a "drifting"
// health status — it names which component broke and how.
func (m *Monitor) Verdicts(repo *rule.Repository) map[string]map[string]int {
	samples := m.snapshotSamples()
	var pages core.Sample
	for _, s := range samples {
		if s.Failing {
			pages = append(pages, s.Page)
		}
		if len(pages) >= m.cfg.RepairSample {
			break
		}
	}
	if len(pages) == 0 {
		return nil
	}
	oracle := core.ValueOracle(goldenLookup(samples))
	out := map[string]map[string]int{}
	for i := range repo.Rules {
		rep, err := core.Check(repo.Rules[i], pages, oracle)
		if err != nil {
			continue
		}
		counts := map[string]int{}
		for _, res := range rep.Results {
			counts[res.Verdict.String()]++
		}
		out[repo.Rules[i].Name] = counts
	}
	return out
}
