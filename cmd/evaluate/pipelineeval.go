package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/pipeline"
	"repro/internal/rule"
)

// siteScore accumulates routing outcomes for one evaluated site
// directory.
type siteScore struct {
	dir      string
	truth    string // manifest cluster name = expected repository
	pages    int
	correct  int
	unrouted int
	confused map[string]int // wrong repo → count
	failures int
}

// runPipelineEval routes and extracts every given site directory through
// the ingestion pipeline and reports routing accuracy against the
// manifests' cluster names.
func runPipelineEval(w io.Writer, sites, ruleSpecs []string, threshold float64) error {
	router := cluster.NewRouter(threshold)
	repos := map[string]*rule.Repository{}
	for _, spec := range ruleSpecs {
		name, path := "", spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			name, path = spec[:i], spec[i+1:]
		}
		repo, err := rule.LoadFile(path)
		if err != nil {
			return err
		}
		if name == "" {
			name = repo.Cluster
		}
		repos[name] = repo
		if repo.Signature == nil {
			fmt.Fprintf(w, "note: repository %q has no signature (rebuild with retrozilla); it cannot win routes\n", name)
			continue
		}
		router.Register(name, repo.Signature)
	}
	ex, err := pipeline.NewStaticExtractor(repos)
	if err != nil {
		return err
	}

	var scores []*siteScore
	for _, dir := range sites {
		src, err := pipeline.NewManifestSource(dir, nil)
		if err != nil {
			return err
		}
		score := &siteScore{dir: dir, truth: src.Manifest().Cluster, confused: map[string]int{}}
		sink := pipeline.FuncSink(func(it *pipeline.Item) error {
			score.pages++
			score.failures += len(it.Failures)
			switch {
			case errors.Is(it.Err, pipeline.ErrUnrouted):
				score.unrouted++
			case it.Err != nil:
				score.confused["error"]++
			case it.Repo == score.truth:
				score.correct++
			default:
				score.confused[it.Repo]++
			}
			return nil
		})
		if _, err := pipeline.Run(context.Background(), pipeline.Config{
			Classifier: pipeline.RouteWith(router),
			Extractor:  routedOnly{ex},
		}, src, sink); err != nil {
			return err
		}
		scores = append(scores, score)
	}

	fmt.Fprintln(w, "=== PIPE — site-ingestion routing evaluation ===")
	fmt.Fprintf(w, "%-28s %-16s %6s %8s %9s %9s %9s\n",
		"site", "truth", "pages", "correct", "unrouted", "confused", "failures")
	totalPages, totalCorrect := 0, 0
	for _, s := range scores {
		confused := 0
		for _, n := range s.confused {
			confused += n
		}
		fmt.Fprintf(w, "%-28s %-16s %6d %8d %9d %9d %9d\n",
			s.dir, s.truth, s.pages, s.correct, s.unrouted, confused, s.failures)
		if len(s.confused) > 0 {
			keys := make([]string, 0, len(s.confused))
			for k := range s.confused {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "    confused with %-12s %d\n", k, s.confused[k])
			}
		}
		totalPages += s.pages
		totalCorrect += s.correct
	}
	if totalPages > 0 {
		fmt.Fprintf(w, "routing accuracy: %.1f%% (%d/%d)\n",
			100*float64(totalCorrect)/float64(totalPages), totalCorrect, totalPages)
	}
	return nil
}

// routedOnly skips extraction for repositories the evaluator has no
// rules for — a routed page still scores, it just produces no record.
type routedOnly struct{ ex pipeline.StaticExtractor }

// Extract implements pipeline.Extractor.
func (r routedOnly) Extract(ctx context.Context, repo string, p *core.Page) (*extract.Element, map[string][]string, []extract.Failure, error) {
	if _, ok := r.ex[repo]; !ok {
		return nil, nil, nil, nil
	}
	return r.ex.Extract(ctx, repo, p)
}
