package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSitegenMovies: one cluster directory whose manifest and ground
// truth cover the same pages, each page file present.
func TestSitegenMovies(t *testing.T) {
	out := t.TempDir()
	var buf bytes.Buffer
	if err := run(&buf, out, "movies", 6, 42); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(out, "imdb-movies")
	if !strings.Contains(buf.String(), "wrote "+dir+": 6 pages") {
		t.Errorf("output = %q", buf.String())
	}
	var man manifest
	var truth map[string]map[string][]string
	for name, v := range map[string]any{"pages.json": &man, "truth.json": &truth} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if man.Cluster != "imdb-movies" || len(man.Pages) != 6 || len(truth) != 6 {
		t.Fatalf("cluster %q with %d pages, truth for %d; want imdb-movies, 6, 6",
			man.Cluster, len(man.Pages), len(truth))
	}
	for uri, file := range man.Pages {
		if _, ok := truth[uri]; !ok {
			t.Errorf("%s has no ground truth", uri)
		}
		if _, err := os.Stat(filepath.Join(dir, file)); err != nil {
			t.Error(err)
		}
	}
	if err := run(&buf, out, "weather", 6, 42); err == nil {
		t.Error("unknown cluster accepted")
	}
}
