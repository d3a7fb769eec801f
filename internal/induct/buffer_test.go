package induct

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
)

// quotePage builds a small structurally uniform page so every call lands
// in the same bucket; pad controls the rendered size.
func quotePage(i, pad int) *core.Page {
	html := fmt.Sprintf(
		"<html><body><div id=q><h2>SYM%d</h2><table><tr><td>Last:</td><td>%d.00</td></tr></table><p>%s</p></div></body></html>",
		i, i, strings.Repeat("x", pad))
	return core.NewPage(fmt.Sprintf("http://quotes.example/q/SYM%d/%d", i, i), html)
}

func TestBufferBucketsBySignature(t *testing.T) {
	movies := corpus.GenerateMovies(corpus.DefaultMovieProfile(11, 8))
	stocks := corpus.GenerateStocks(corpus.DefaultStockProfile(12, 8))
	b := NewUnroutedBuffer(Config{})

	// Interleave the two clusters: bucketing must separate them anyway.
	for i := 0; i < 8; i++ {
		if _, ok := b.Add(movies.Pages[i]); !ok {
			t.Fatalf("movie page %d not captured", i)
		}
		if _, ok := b.Add(stocks.Pages[i]); !ok {
			t.Fatalf("stock page %d not captured", i)
		}
	}
	infos := b.Buckets()
	if len(infos) != 2 {
		t.Fatalf("%d buckets, want 2: %+v", len(infos), infos)
	}
	for _, info := range infos {
		if info.Pages != 8 {
			t.Errorf("bucket %s (%s) holds %d pages, want 8", info.ID, info.Name, info.Pages)
		}
		// Buckets must be pure: all URIs from one host.
		host := info.URIs[0]
		for _, uri := range info.URIs {
			if strings.Split(uri, "/")[2] != strings.Split(host, "/")[2] {
				t.Errorf("bucket %s mixes hosts: %v", info.ID, info.URIs)
				break
			}
		}
		// A full-cluster streak: 7 captures joined the founding page.
		if info.Streak != 7 {
			t.Errorf("bucket %s streak = %d, want 7", info.ID, info.Streak)
		}
	}
	if b.Len() != 16 {
		t.Errorf("Len = %d, want 16", b.Len())
	}
}

// TestBufferByteCapEvictsOldestFirst is the regression test for the
// byte-cap eviction order: over the cap, captures leave strictly
// oldest-first, so the buffer always holds the freshest evidence.
func TestBufferByteCapEvictsOldestFirst(t *testing.T) {
	one := captureSize(quotePage(0, 256))
	b := NewUnroutedBuffer(Config{MaxBytes: 3*one + one/2})
	for i := 0; i < 6; i++ {
		if _, ok := b.Add(quotePage(i, 256)); !ok {
			t.Fatalf("page %d not captured", i)
		}
	}
	infos := b.Buckets()
	if len(infos) != 1 {
		t.Fatalf("%d buckets, want 1", len(infos))
	}
	// Pages 0..2 evicted (oldest first); 3..5 retained in capture order.
	want := []string{
		"http://quotes.example/q/SYM3/3",
		"http://quotes.example/q/SYM4/4",
		"http://quotes.example/q/SYM5/5",
	}
	if got := infos[0].URIs; len(got) != len(want) {
		t.Fatalf("retained %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("retained %v, want %v (eviction order broken)", got, want)
			}
		}
	}
	if ev := b.Evicted(); ev != 3 {
		t.Errorf("Evicted = %d, want 3", ev)
	}
	if b.Bytes() > 3*one+one/2 {
		t.Errorf("Bytes = %d over cap %d", b.Bytes(), 3*one+one/2)
	}
	// The signature keeps the evicted pages' evidence: the centroid
	// absorbed all six.
	if infos[0].SignaturePages != 6 {
		t.Errorf("signature pages = %d, want 6", infos[0].SignaturePages)
	}
}

// TestBufferChargesRetainedMarkup is the regression test for the byte
// cap's accounting: a capture is charged every byte of markup it keeps,
// including what a parsed tree would drop (whitespace-only text, stray
// end tags), so pages padded with such bytes cannot retain more than the
// cap.
func TestBufferChargesRetainedMarkup(t *testing.T) {
	const maxBytes = 16 << 10
	pad := map[string]string{
		"space": strings.Repeat(" ", 6<<10),
		"stray": strings.Repeat(`</x y="z">`, 600),
	}
	for name, filler := range pad {
		b := NewUnroutedBuffer(Config{MaxBytes: maxBytes})
		for i := 0; i < 8; i++ {
			src := fmt.Sprintf("<p>%s%d</p>%s", name, i, filler)
			p := core.NewPageLazy(fmt.Sprintf("http://pad.example/%s/%d", name, i), src)
			if _, ok := b.Add(p); !ok {
				t.Fatalf("%s page %d not captured", name, i)
			}
			if b.Bytes() > maxBytes {
				t.Fatalf("%s: buffer charged %d bytes, over the %d cap", name, b.Bytes(), maxBytes)
			}
		}
		var held int64
		for _, info := range b.Buckets() {
			caps, _, _, _ := b.snapshot(info.ID)
			for _, c := range caps {
				held += int64(len(c.HTML))
			}
		}
		if held != b.Bytes() || b.Evicted() == 0 {
			t.Fatalf("%s: holds %d markup bytes, charged %d, evicted %d", name, held, b.Bytes(), b.Evicted())
		}
		huge := core.NewPageLazy("http://pad.example/huge", "<p>x</p>"+strings.Repeat(" ", 2*maxBytes))
		if _, ok := b.Add(huge); ok {
			t.Fatalf("%s: a page over the whole cap was admitted", name)
		}
	}
}

// TestBufferRecaptureReplacesURI: re-posting one page (a client retry
// loop) replaces the retained copy without inflating the centroid or
// faking stability — otherwise one retried page would outweigh the rest
// of its cluster and a streak of retries would count as a stable
// centroid.
func TestBufferRecaptureReplacesURI(t *testing.T) {
	b := NewUnroutedBuffer(Config{})
	p := quotePage(1, 16)
	for i := 0; i < 50; i++ {
		if _, ok := b.Add(core.NewPage(p.URI, dom.Render(p.Doc))); !ok {
			t.Fatal("re-capture refused")
		}
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d after re-capturing one URI, want 1", b.Len())
	}
	info := b.Buckets()[0]
	if info.SignaturePages != 1 {
		t.Errorf("centroid absorbed %d pages from one URI, want 1", info.SignaturePages)
	}
	if info.Streak != 0 {
		t.Errorf("streak = %d from retries of one page, want 0", info.Streak)
	}
	// A genuinely new cluster page still advances both.
	b.Add(quotePage(2, 16))
	info = b.Buckets()[0]
	if info.SignaturePages != 2 || info.Streak != 1 {
		t.Errorf("after a new page: signature %d / streak %d, want 2 / 1",
			info.SignaturePages, info.Streak)
	}
}

func TestBufferBucketCapEvictsIdlestCluster(t *testing.T) {
	movies := corpus.GenerateMovies(corpus.DefaultMovieProfile(13, 4))
	stocks := corpus.GenerateStocks(corpus.DefaultStockProfile(14, 4))
	books := corpus.GenerateBooks(corpus.DefaultBookProfile(15, 4))
	b := NewUnroutedBuffer(Config{MaxBuckets: 2})
	for _, p := range movies.Pages {
		b.Add(p)
	}
	for _, p := range stocks.Pages {
		b.Add(p)
	}
	// A third cluster arrives: the movies bucket (least recently fed)
	// must make room.
	if _, ok := b.Add(books.Pages[0]); !ok {
		t.Fatal("book page not captured")
	}
	infos := b.Buckets()
	if len(infos) != 2 {
		t.Fatalf("%d buckets, want 2", len(infos))
	}
	for _, info := range infos {
		for _, uri := range info.URIs {
			if strings.Contains(uri, "imdb") || strings.Contains(uri, "title") {
				t.Errorf("movies bucket survived the bucket cap: %v", info.URIs)
			}
		}
	}
	// With both remaining buckets holding active jobs, a fourth cluster
	// is dropped, not captured.
	for _, info := range b.Buckets() {
		if !b.setJob(info.ID, "j-test") {
			t.Fatalf("setJob(%s) refused", info.ID)
		}
	}
	forum := corpus.GenerateForum(corpus.DefaultForumProfile(16, 1))
	if _, ok := b.Add(forum.Pages[0]); ok {
		t.Error("capture accepted with all buckets job-pinned at the cap")
	}
}

// TestBufferRefusesOversizedPage: one page over the whole byte cap must
// be refused outright — not admitted, evicting everything else on its
// way through.
func TestBufferRefusesOversizedPage(t *testing.T) {
	b := NewUnroutedBuffer(Config{MaxBytes: 2048})
	for i := 0; i < 3; i++ {
		if _, ok := b.Add(quotePage(i, 64)); !ok {
			t.Fatalf("page %d not captured", i)
		}
	}
	if _, ok := b.Add(quotePage(99, 8192)); ok {
		t.Fatal("oversized page admitted")
	}
	if b.Len() != 3 {
		t.Errorf("oversized page purged the buffer: %d retained, want 3", b.Len())
	}
}
