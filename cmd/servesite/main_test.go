package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/webfetch"
)

// get fetches path from the site handler.
func get(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d", path, rec.Code)
	}
	return rec.Body.String()
}

// TestServesiteDrift: -drift runtime:relabel changes the markup of the
// served movies pages; an unknown drift kind is refused.
func TestServesiteDrift(t *testing.T) {
	plain, clusters, err := webfetch.DefaultSite(42, 4)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	drifted, err := newSite(&out, 4, 42, "runtime:relabel")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `injected relabel drift on "runtime" into 4 pages`) {
		t.Errorf("output = %q", out.String())
	}
	if plain.PageCount() != drifted.PageCount() {
		t.Errorf("drift changed the page count: %d → %d", plain.PageCount(), drifted.PageCount())
	}
	changed := 0
	for _, p := range clusters[0].Pages {
		u, err := url.Parse(p.URI)
		if err != nil {
			t.Fatal(err)
		}
		if get(t, plain, u.Path) != get(t, drifted, u.Path) {
			changed++
		}
	}
	if changed != len(clusters[0].Pages) {
		t.Errorf("relabel changed %d of %d movie pages", changed, len(clusters[0].Pages))
	}

	h, _, err := webfetch.DefaultSite(42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyDrift(io.Discard, h, clusters[0], "runtime:melt", 42); err == nil ||
		!strings.Contains(err.Error(), `unknown drift kind "melt"`) {
		t.Errorf("unknown kind: err = %v", err)
	}
}
