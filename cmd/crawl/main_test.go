package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/webfetch"
)

// TestCrawlSite crawls the corpus site twice: into a pages directory,
// and as NDJSON page lines, one per served page.
func TestCrawlSite(t *testing.T) {
	h, _, err := webfetch.DefaultSite(42, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	pages := h.PageCount() + 1 // the index at "/" is a page too

	out := filepath.Join(t.TempDir(), "pages")
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, srv.URL+"/", out, 200, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	man, err := pipeline.LoadManifest(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Pages) != pages {
		t.Errorf("pages.json lists %d pages, site serves %d", len(man.Pages), pages)
	}
	if !strings.Contains(buf.String(), "-> "+out) {
		t.Errorf("output = %q", buf.String())
	}

	buf.Reset()
	if err := run(context.Background(), &buf, srv.URL+"/", "", 200, 0, 0, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != pages {
		t.Fatalf("%d NDJSON lines, want %d", len(lines), pages)
	}
	seen := map[string]bool{}
	for _, l := range lines {
		var p struct{ URI, HTML string }
		if err := json.Unmarshal([]byte(l), &p); err != nil || p.URI == "" || p.HTML == "" {
			t.Fatalf("bad page line %q: %v", l, err)
		}
		if seen[p.URI] {
			t.Errorf("%s emitted twice", p.URI)
		}
		seen[p.URI] = true
	}
	if !seen[srv.URL+"/"] {
		t.Error("index page not emitted")
	}
}
