// Command evaluate regenerates the paper's tables and figures and the
// quantitative studies derived from its claims. With no flags it runs
// everything; -exp selects one experiment by ID.
//
// With -site/-rules flags it instead evaluates the online ingestion
// pipeline: the named site directories stream through signature routing
// and extraction, and the report scores routing accuracy against each
// directory's manifest cluster (the ground truth) plus extraction
// failures per repository.
//
// Usage:
//
//	evaluate              # run all experiments
//	evaluate -exp T1      # run one (F1 T1 T2 T3 F3 F5 XSD T4 CONV BASE NEST FAIL)
//	evaluate -list        # list experiment IDs
//	evaluate -site ./site/imdb-movies -site ./site/books \
//	         -rules imdb-movies=movies.json -rules books=books.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

type repeatable []string

func (r *repeatable) String() string     { return strings.Join(*r, ",") }
func (r *repeatable) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	exp := flag.String("exp", "", "experiment ID to run (default: all)")
	list := flag.Bool("list", false, "list experiment IDs")
	var sites, rules repeatable
	flag.Var(&sites, "site", "pages directory to route+extract (repeatable; enables pipeline evaluation)")
	flag.Var(&rules, "rules", "repository to load ([name=]path.json|path.xml); repeatable")
	threshold := flag.Float64("threshold", 0, "routing threshold (0 = default)")
	flag.Parse()
	if err := run(os.Stdout, *exp, *list, sites, rules, *threshold); err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, list bool, sites, rules []string, threshold float64) error {
	if len(sites) > 0 || len(rules) > 0 {
		if len(sites) == 0 || len(rules) == 0 {
			return fmt.Errorf("pipeline evaluation needs both -site and -rules")
		}
		return runPipelineEval(w, sites, rules, threshold)
	}
	if list {
		fmt.Fprintln(w, strings.Join(experiments.IDs(), " "))
		return nil
	}
	if exp != "" {
		r, ok := experiments.ByID(exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q; available: %s",
				exp, strings.Join(experiments.IDs(), " "))
		}
		printReport(w, r)
		return nil
	}
	for _, r := range experiments.All() {
		printReport(w, r)
	}
	return nil
}

func printReport(w io.Writer, r experiments.Report) {
	fmt.Fprintf(w, "=== %s — %s ===\n", r.ID, r.Title)
	fmt.Fprintln(w, r.Text)
	fmt.Fprintln(w)
}
