package service

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/induct"
	"repro/internal/pipeline"
)

// TestUnroutedLazyPageCapturedTreeFree: an unrouted page that arrives as
// raw markup reaches the induction buffer without ever being parsed, and
// the routing fingerprint pass is the only one it gets — the capture
// reuses its features and is charged the raw source's length.
func TestUnroutedLazyPageCapturedTreeFree(t *testing.T) {
	cl, repo := buildMoviesRepo(t, 94, 8)
	repo.Signature = buildRepoWithSignature(t, cl).Signature
	srv, ts := newTestServer(t)
	eng := srv.EnableInduction(induct.Config{})
	t.Cleanup(eng.Close)
	postJSONRepo(t, ts.URL, repo, "")

	calls := 0
	orig := fingerprintPage
	fingerprintPage = func(p *core.Page) cluster.Features {
		calls++
		return orig(p)
	}
	t.Cleanup(func() { fingerprintPage = orig })

	alien := corpus.GenerateStocks(corpus.DefaultStockProfile(95, 1)).Pages[0]
	src := dom.Render(alien.Doc)
	page := core.NewPageLazy(alien.URI, src)
	page.SetOnParse(func(*dom.Node) { t.Error("the unrouted page was parsed") })
	if _, _, err := srv.routePage(context.Background(), page); !errors.Is(err, pipeline.ErrUnrouted) {
		t.Fatalf("routePage error %v, want unrouted", err)
	}
	if calls != 1 {
		t.Fatalf("page fingerprinted %d times, want 1", calls)
	}
	if page.Doc != nil {
		t.Fatal("capture materialized the tree (Doc != nil)")
	}
	buckets := eng.Buffer().Buckets()
	if len(buckets) != 1 || len(buckets[0].URIs) != 1 || buckets[0].URIs[0] != alien.URI {
		t.Fatalf("buffer = %+v, want the one unrouted page", buckets)
	}
	if buckets[0].Bytes != int64(len(src)) {
		t.Fatalf("capture charged %d bytes, source is %d", buckets[0].Bytes, len(src))
	}
}
