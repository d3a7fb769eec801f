// Command servesite serves a synthetic multi-cluster site over HTTP —
// the live "Web site" of Figure 1, useful for demonstrating the crawl →
// cluster → analyze → extract pipeline end to end against a real server.
//
// Usage:
//
//	servesite -addr :8080 -pages 30 -seed 42
//	crawl    -url http://localhost:8080/ -out ./pages
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repro/internal/corpus"
	"repro/internal/webfetch"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	pages := flag.Int("pages", 30, "pages per cluster")
	seed := flag.Int64("seed", 42, "generator seed")
	drift := flag.String("drift", "",
		"simulate page evolution before serving: component[:remove|duplicate|relabel] (movies cluster)")
	flag.Parse()

	if err := run(os.Stdout, *addr, *pages, *seed, *drift); err != nil {
		fmt.Fprintln(os.Stderr, "servesite:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, addr string, pages int, seed int64, drift string) error {
	h, err := newSite(w, pages, seed, drift)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "serving %d pages on %s (index at /)\n", h.PageCount(), addr)
	return http.ListenAndServe(addr, h)
}

// newSite builds the served corpus, with the -drift spec applied to its
// movies cluster.
func newSite(w io.Writer, pages int, seed int64, drift string) (*webfetch.SiteHandler, error) {
	h, clusters, err := webfetch.DefaultSite(seed, pages)
	if err == nil && drift != "" {
		err = applyDrift(w, h, clusters[0], drift, seed)
	}
	return h, err
}

// applyDrift mutates the served pages before startup — the local way to
// exercise extractd's drift detection and repair against a "evolved"
// site without editing any HTML by hand.
func applyDrift(w io.Writer, h *webfetch.SiteHandler, cl *corpus.Cluster, spec string, seed int64) error {
	component, kindName := spec, "relabel"
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		component, kindName = spec[:i], spec[i+1:]
	}
	var kind corpus.DriftKind
	switch kindName {
	case "remove":
		kind = corpus.DriftRemoveMandatory
	case "duplicate":
		kind = corpus.DriftDuplicateValue
	case "relabel":
		kind = corpus.DriftRelabel
	default:
		return fmt.Errorf("unknown drift kind %q", kindName)
	}
	pages, drifts := corpus.InjectDrift(cl, component, kind, 1.0, seed)
	if len(drifts) == 0 {
		return fmt.Errorf("drift %q did not apply to any page (unknown component?)", spec)
	}
	if err := h.SetPages(pages); err != nil {
		return err
	}
	fmt.Fprintf(w, "injected %s drift on %q into %d pages\n", kindName, component, len(drifts))
	return nil
}
