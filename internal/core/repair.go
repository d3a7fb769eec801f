package core

import (
	"fmt"

	"repro/internal/rule"
)

// RepairOutcome reports what a repair pass did to one rule.
type RepairOutcome int

// Repair outcomes.
const (
	// RepairUnchanged: the recorded rule still retrieves the pertinent
	// values on the new sample.
	RepairUnchanged RepairOutcome = iota
	// RepairRebuilt: the rule failed on the new sample and was rebuilt
	// from fresh selections (§7: "the rule should be refined manually
	// from the negative examples").
	RepairRebuilt
	// RepairFailed: even a rebuild could not produce a valid rule.
	RepairFailed
)

// String names the outcome.
func (o RepairOutcome) String() string {
	switch o {
	case RepairUnchanged:
		return "unchanged"
	case RepairRebuilt:
		return "rebuilt"
	case RepairFailed:
		return "failed"
	default:
		return fmt.Sprintf("RepairOutcome(%d)", int(o))
	}
}

// RepairResult is the outcome of repairing one rule.
type RepairResult struct {
	Outcome RepairOutcome
	Rule    rule.Rule
	// Build holds the rebuild trace when Outcome is RepairRebuilt or
	// RepairFailed.
	Build *BuildResult
}

// RepairRule completes the paper's §7 sketch of semi-automated error
// recovery: given a recorded rule and a sample of current pages (e.g.
// pages on which the extraction processor reported failures), the rule is
// re-checked; if it no longer retrieves the pertinent values, the full
// build scenario runs again with the operator's (oracle's) fresh
// selections, producing a replacement rule.
func (b *Builder) RepairRule(r rule.Rule, verbose bool) (RepairResult, error) {
	rep, err := Check(r, b.Sample, b.Oracle)
	if err != nil {
		return RepairResult{}, err
	}
	if rep.OK(r.Optionality) {
		return RepairResult{Outcome: RepairUnchanged, Rule: r}, nil
	}
	res, err := b.BuildRule(r.Name)
	if err != nil {
		return RepairResult{}, err
	}
	out := RepairResult{Rule: res.Rule, Build: &res}
	if res.OK {
		out.Outcome = RepairRebuilt
		// Carry over the intra-node refinement: it expresses value
		// cleanup, not location, so it survives a location rebuild.
		out.Rule.Refine = r.Refine
	} else {
		out.Outcome = RepairFailed
		out.Rule = r // keep the old rule; a broken replacement is worse
	}
	return out, nil
}
