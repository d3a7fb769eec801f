// Command metriclint checks a Prometheus text exposition against the
// repo's metric naming conventions: the extractd_ prefix, lowercase
// snake_case names, HELP on every family, _total on counters, unit
// suffixes on gauges and histograms, and a closed label-key allowlist
// (the cardinality budget). CI runs it with no arguments, which lints
// the daemon's declared catalogue — every family's name, type, HELP and
// label keys, straight from the table /metrics renders — so a new
// metric with a bad name or an unbounded label fails the build before
// it reaches a dashboard.
//
// Usage:
//
//	metriclint              # lint extractd's declared metric catalogue
//	metriclint -f dump.txt  # lint a scraped exposition file
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	file := flag.String("f", "",
		"lint a scraped exposition file instead of the declared catalogue")
	flag.Parse()
	problems, fams, err := lint(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metriclint:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "metriclint:", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	fmt.Printf("metriclint: %d families clean\n", len(fams))
}

// lint runs the naming linter over a scraped exposition file, or with
// no file over the declared catalogue.
func lint(file string) ([]string, []*obs.PromFamily, error) {
	fams := declared()
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		if fams, err = obs.ParseProm(f); err != nil {
			return nil, nil, err
		}
	}
	return obs.Lint(fams, obs.LintOptions{}), fams, nil
}

// declared turns extractd's family declarations into the linter's
// shape: one sample per family carrying its declared label keys.
func declared() []*obs.PromFamily {
	var fams []*obs.PromFamily
	for _, d := range service.Families() {
		s := obs.PromSample{Name: d.Name}
		for _, k := range d.Labels {
			s.Labels = append(s.Labels, obs.Label{Key: k})
		}
		fams = append(fams, &obs.PromFamily{
			Name: d.Name, Type: d.Type, Help: d.Help, Samples: []obs.PromSample{s},
		})
	}
	return fams
}
