package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/rule"
)

func TestEvaluateListAndFigureFive(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "", true, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "F1 T1 T2 T3 F3 F5 XSD T4 CONV BASE NEST FAIL" {
		t.Errorf("-list = %q", got)
	}

	out.Reset()
	if err := run(&out, "f5", false, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "=== F5 — ") || !strings.Contains(out.String(), "<imdb-movie") {
		t.Errorf("-exp F5 did not print Figure 5:\n%s", out.String())
	}
	if err := run(&out, "T9", false, nil, nil, 0); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run(&out, "", false, []string{"site"}, nil, 0); err == nil {
		t.Error("-site without -rules accepted")
	}
}

// TestEvaluatePipelineRouting: a movies site directory and the
// repository built for it (with its cluster signature) route every page
// to that repository.
func TestEvaluatePipelineRouting(t *testing.T) {
	dir := t.TempDir()
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(42, 8))
	site := filepath.Join(dir, "imdb-movies")
	if err := os.MkdirAll(site, 0o755); err != nil {
		t.Fatal(err)
	}
	man := struct {
		Cluster string            `json:"cluster"`
		Pages   map[string]string `json:"pages"`
	}{Cluster: cl.Name, Pages: map[string]string{}}
	sig := cluster.NewSignature()
	for i, p := range cl.Pages {
		file := fmt.Sprintf("page%03d.html", i)
		if err := os.WriteFile(filepath.Join(site, file), []byte(dom.Render(p.Doc)), 0o644); err != nil {
			t.Fatal(err)
		}
		man.Pages[p.URI] = file
		sig.Add(cluster.Fingerprint(cluster.PageInfo{URI: p.URI, Doc: p.Doc}))
	}
	data, _ := json.Marshal(man)
	if err := os.WriteFile(filepath.Join(site, "pages.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	sample, _ := cl.RepresentativeSplit(6)
	repo := rule.NewRepository(cl.Name)
	if _, err := (&core.Builder{Sample: sample, Oracle: cl.Oracle()}).BuildAll(repo, cl.ComponentNames()); err != nil {
		t.Fatal(err)
	}
	repo.Signature = sig
	rules := filepath.Join(dir, "movies.json")
	if err := repo.Save(rules); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run(&out, "", false, []string{site}, []string{rules}, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "routing accuracy: 100.0% (8/8)") {
		t.Errorf("not every page routed to imdb-movies:\n%s", out.String())
	}
}
