// Command sitegen writes a synthetic web-site corpus to disk: one
// directory per cluster containing the HTML pages, a pages.json manifest
// (URI → file) and a truth.json ground-truth file with the expected
// component values per page.
//
// Usage:
//
//	sitegen -out ./site -cluster movies -pages 50 -seed 42
//	sitegen -out ./site -cluster all   -pages 30
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/corpus"
	"repro/internal/dom"
)

func main() {
	out := flag.String("out", "site", "output directory")
	clusterName := flag.String("cluster", "all", "movies | books | stocks | forum | all")
	pages := flag.Int("pages", 30, "pages per cluster")
	seed := flag.Int64("seed", 42, "generator seed")
	flag.Parse()
	if err := run(os.Stdout, *out, *clusterName, *pages, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "sitegen:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, out, clusterName string, pages int, seed int64) error {
	var clusters []*corpus.Cluster
	switch clusterName {
	case "movies":
		clusters = append(clusters, corpus.GenerateMovies(corpus.DefaultMovieProfile(seed, pages)))
	case "books":
		clusters = append(clusters, corpus.GenerateBooks(corpus.DefaultBookProfile(seed, pages)))
	case "stocks":
		clusters = append(clusters, corpus.GenerateStocks(corpus.DefaultStockProfile(seed, pages)))
	case "forum":
		clusters = append(clusters, corpus.GenerateForum(corpus.DefaultForumProfile(seed, pages)))
	case "all":
		clusters = append(clusters,
			corpus.GenerateMovies(corpus.DefaultMovieProfile(seed, pages)),
			corpus.GenerateBooks(corpus.DefaultBookProfile(seed+1, pages)),
			corpus.GenerateStocks(corpus.DefaultStockProfile(seed+2, pages)),
			corpus.GenerateForum(corpus.DefaultForumProfile(seed+3, pages)))
	default:
		return fmt.Errorf("unknown cluster %q", clusterName)
	}
	for _, cl := range clusters {
		if err := writeCluster(w, out, cl); err != nil {
			return err
		}
	}
	return nil
}

// manifest maps page URIs to their HTML files.
type manifest struct {
	Cluster    string            `json:"cluster"`
	Components []string          `json:"components"`
	Pages      map[string]string `json:"pages"`
}

func writeCluster(w io.Writer, root string, cl *corpus.Cluster) error {
	dir := filepath.Join(root, cl.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	man := manifest{
		Cluster:    cl.Name,
		Components: cl.ComponentNames(),
		Pages:      map[string]string{},
	}
	truth := map[string]map[string][]string{}
	for i, p := range cl.Pages {
		file := fmt.Sprintf("page%03d.html", i)
		if err := os.WriteFile(filepath.Join(dir, file),
			[]byte(dom.Render(p.Doc)), 0o644); err != nil {
			return err
		}
		man.Pages[p.URI] = file
		tv := map[string][]string{}
		for _, comp := range cl.ComponentNames() {
			if vals := cl.TruthStrings(p, comp); len(vals) > 0 {
				tv[comp] = vals
			}
		}
		truth[p.URI] = tv
	}
	if err := writeJSON(filepath.Join(dir, "pages.json"), man); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "truth.json"), truth); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d pages, %d components\n", dir, len(cl.Pages), len(cl.Components))
	return nil
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
