package pipeline

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/rule"
	"repro/internal/streamx"
)

// RouteWith adapts a cluster.Router into the Classify stage: each page is
// routed to the best-matching registered repository; a page below the
// routing threshold fails with ErrUnrouted (wrapped with the near-miss
// diagnostics).
func RouteWith(r *cluster.Router) Classifier {
	return ClassifierFunc(func(p *core.Page) (string, float64, error) {
		// Learned URL patterns route without touching the page content;
		// only pattern misses and sampled verifications fingerprint — and
		// lazy pages do that straight off their token stream, no tree.
		route, ok := r.RouteLazy(p.URI, func() cluster.Features { return streamx.FingerprintPage(p) })
		if !ok {
			if route.Name != "" {
				return "", route.Score, fmt.Errorf("%w (best %q at %.2f)", ErrUnrouted, route.Name, route.Score)
			}
			return "", 0, ErrUnrouted
		}
		return route.Name, route.Score, nil
	})
}

// StaticExtractor is the CLI-side Extract stage: a fixed table of
// compiled processors keyed by repository name. A Processor is immutable after
// NewProcessor, so concurrent Extract calls are safe.
type StaticExtractor map[string]*extract.Processor

// NewStaticExtractor compiles one processor per repository, keyed by the
// given names.
func NewStaticExtractor(repos map[string]*rule.Repository) (StaticExtractor, error) {
	out := make(StaticExtractor, len(repos))
	for name, repo := range repos {
		proc, err := extract.NewProcessor(repo)
		if err != nil {
			return nil, fmt.Errorf("pipeline: compiling %q: %w", name, err)
		}
		out[name] = proc
	}
	return out, nil
}

// Extract implements Extractor.
func (m StaticExtractor) Extract(_ context.Context, repo string, p *core.Page) (*extract.Element, map[string][]string, []extract.Failure, error) {
	proc, ok := m[repo]
	if !ok {
		return nil, nil, nil, fmt.Errorf("pipeline: no repository %q", repo)
	}
	el, values, fails := proc.ExtractPageValues(p)
	return el, values, fails, nil
}
