package cluster

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

func TestURLPatternNormalization(t *testing.T) {
	_, segs1 := splitURI("http://movies.example/title/tt0095159/")
	_, segs2 := splitURI("http://movies.example/title/tt0071853/")
	if len(segs1) != 2 || segs1[1] != "tt#" {
		t.Errorf("segments = %v", segs1)
	}
	if urlSimilarity(segs1, segs2) != 1 {
		t.Errorf("same-pattern URLs must score 1, got %f", urlSimilarity(segs1, segs2))
	}
	_, other := splitURI("http://movies.example/search?q=x")
	if urlSimilarity(segs1, other) >= 1 {
		t.Error("different patterns must score < 1")
	}
}

// TestSignatureValidateRejectsCorrupt: counts above the page count are a
// corrupt (hand-edited) signature and must not load.
func TestSignatureValidateRejectsCorrupt(t *testing.T) {
	var s Signature
	err := json.Unmarshal([]byte(`{"pages":2,"tags":[{"k":"HTML","n":5}]}`), &s)
	if err == nil {
		t.Error("corrupt signature accepted")
	}
}

// TestSignatureFeatureCap: signatures stay bounded no matter how many
// distinct features flow in.
func TestSignatureFeatureCap(t *testing.T) {
	s := NewSignature()
	for i := 0; i < maxSignatureFeatures+500; i++ {
		f := Features{
			Keywords:    map[string]struct{}{uniqueWord(i): {}},
			TagShingles: map[string]struct{}{},
		}
		s.Add(f)
	}
	if len(s.Keywords) > maxSignatureFeatures {
		t.Errorf("keyword map grew to %d, cap %d", len(s.Keywords), maxSignatureFeatures)
	}
}

func uniqueWord(i int) string {
	const letters = "abcdefghij"
	out := make([]byte, 0, 8)
	for i > 0 || len(out) == 0 {
		out = append(out, letters[i%10])
		i /= 10
	}
	return "w" + string(out)
}

// TestURLKeyMatchesSplitURI pins the fused urlKey scan against the
// reference construction from splitURI, whose normalization defines the
// URL pattern feature.
func TestURLKeyMatchesSplitURI(t *testing.T) {
	ref := func(uri string) string {
		host, segs := splitURI(uri)
		key := host
		for _, s := range segs {
			key += "\n" + s
		}
		return key
	}
	cases := []string{
		"http://movies.example/title/tt0095159/",
		"https://books.example/item/123456?ref=9",
		"http://quotes.example/q/ABC/7",
		"http://host.example", "http://host.example/", "host.example/a//b",
		"http://host.example/?q=1", "ftp://x/y9z8/..//9",
		"", "/abs/path/3", "no-scheme/päth/42x7",
	}
	for _, uri := range cases {
		if got, want := urlKey(uri), ref(uri); got != want {
			t.Errorf("urlKey(%q) = %q, want %q", uri, got, want)
		}
	}
}

// oldTrimRarest is the eviction loop trimRarest replaced: one full scan
// of the map per evicted key. It stays as the reference.
func oldTrimRarest(m map[string]int, cap int) (removed int) {
	for len(m) > cap {
		minK, minN := "", 0
		for k, n := range m {
			if minK == "" || n < minN || (n == minN && k < minK) {
				minK, minN = k, n
			}
		}
		delete(m, minK)
		removed += minN
	}
	return removed
}

// TestTrimRarestMatchesLoop: the sorted trim keeps exactly the entries
// the per-key loop keeps and reports the same removed total, on maps
// dense in count ties.
func TestTrimRarestMatchesLoop(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := map[string]int{}
		for n := rng.Intn(200); n > 0; n-- {
			got[fmt.Sprintf("k%d", rng.Intn(300))] = 1 + rng.Intn(1+rng.Intn(6))
		}
		want := maps.Clone(got)
		limit := rng.Intn(len(got) + 2)
		gotRemoved, wantRemoved := trimRarest(got, limit), oldTrimRarest(want, limit)
		if gotRemoved != wantRemoved || !maps.Equal(got, want) {
			t.Fatalf("seed %d, cap %d: removed %d, kept %v; the loop removed %d, kept %v",
				seed, limit, gotRemoved, got, wantRemoved, want)
		}
	}
}

// BenchmarkSignatureAddSaturated: Add on a signature whose keyword map
// sits at the cap, each page bringing 30 words it has never seen, so
// every Add trims 30 keywords.
func BenchmarkSignatureAddSaturated(b *testing.B) {
	word := 0
	page := func() Features {
		f := Features{
			URLPattern:  []string{"title", "tt#"},
			TagShingles: map[string]struct{}{"HTML/BODY/H1": {}},
			Keywords:    map[string]struct{}{},
		}
		for i := 0; i < 30; i++ {
			f.Keywords[fmt.Sprintf("w%d", word)] = struct{}{}
			word++
		}
		return f
	}
	s := NewSignature()
	for len(s.Keywords) < maxSignatureFeatures {
		s.Add(page())
	}
	pages := make([]Features, 2000)
	for i := range pages {
		pages[i] = page()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(pages[i%len(pages)])
	}
}
