package main

import (
	"bytes"
	"crypto/sha256"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// testPool keeps fixtures small; the benchmark itself uses poolSize.
const testPool = 64

func fixtureFor(t *testing.T, w workload, seed int64) *fixture {
	t.Helper()
	fx, err := newFixture(w, seed, testPool)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	return fx
}

// sequenceDigest hashes every request a round of the workload sends.
func sequenceDigest(fx *fixture) [32]byte {
	h := sha256.New()
	for i := 0; i < fx.w.total(); i++ {
		if fx.w.kind == ingestKind {
			h.Write(appendIngestLine(nil, fx, i))
		} else {
			t := fx.tpls[fx.reqs[i]]
			h.Write(t.reqPre)
			h.Write([]byte(strconv.Itoa(idBase + i)))
			h.Write(t.reqSuf)
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func TestSeedDeterminesRequestSequence(t *testing.T) {
	for _, w := range workloads {
		a := sequenceDigest(fixtureFor(t, w, 1))
		b := sequenceDigest(fixtureFor(t, w, 1))
		c := sequenceDigest(fixtureFor(t, w, 2))
		if a != b {
			t.Errorf("%s: seed 1 generated two different request sequences", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same request sequence", w.name)
		}
	}
}

// urlPattern is the host plus digit-collapsed path the router keys on.
func urlPattern(uri string) string {
	f := cluster.FeaturesFromParts(uri, nil, nil)
	return f.Host + "/" + strings.Join(f.URLPattern, "/")
}

func TestUniqueURIsKeepURLPatterns(t *testing.T) {
	w, _ := findWorkload("ingest-mixed")
	fx := fixtureFor(t, w, 3)
	want := map[string]map[string]bool{} // cluster → patterns of the generated URIs
	for _, p := range fx.pages {
		if want[p.cluster] == nil {
			want[p.cluster] = map[string]bool{}
		}
		want[p.cluster][urlPattern(p.uri)] = true
	}
	if len(want["movies"]) != 1 || len(want["books"]) != 1 {
		t.Fatalf("generated movies/books URIs should share one pattern each: %v", want)
	}
	got := map[string]map[string]bool{}
	seen := map[string]bool{}
	for i := 0; i < 3*len(fx.cycle); i++ {
		p := fx.ingestPage(i)
		uri := p.uriPre + strconv.Itoa(idBase+i) + p.uriSuf
		if seen[uri] {
			t.Fatalf("URI %s sent twice", uri)
		}
		seen[uri] = true
		if got[p.cluster] == nil {
			got[p.cluster] = map[string]bool{}
		}
		got[p.cluster][urlPattern(uri)] = true
	}
	for cl, pats := range want {
		if len(got[cl]) != len(pats) {
			t.Errorf("%s: rewritten URIs have patterns %v, generated ones %v", cl, got[cl], pats)
		}
		for pat := range got[cl] {
			if !pats[pat] {
				t.Errorf("%s: rewritten URI pattern %q not among the generated ones %v", cl, pat, pats)
			}
		}
	}
}

func TestSelfTimeIsDurationMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{layer: lSource, parent: -1, start: 0, end: 100},
		{layer: lDecode, parent: 0, start: 10, end: 40},
		{layer: lPageKey, parent: 0, start: 30, end: 60},     // overlaps its sibling
		{layer: lRoute, parent: 0, start: 90, end: 120},      // runs past its parent
		{layer: lFingerprint, parent: 1, start: 15, end: 20}, // grandchild of span 0
		{layer: lSink, parent: -1, start: 200, end: 210},
	}
	// Span 0 is covered by [10,60] and [90,100]: 60 of its 100 ns.
	want := []int64{40, 25, 30, 30, 5, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMetricCatalogueMatchesSpec(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, defs []metricDef, specUnits map[string]string) {
		t.Helper()
		seen := map[string]bool{}
		for _, d := range defs {
			if !name.MatchString(d.name) {
				t.Errorf("%s metric %q is not a valid name", kind, d.name)
			}
			if seen[d.name] {
				t.Errorf("%s metric %q emitted twice", kind, d.name)
			}
			seen[d.name] = true
			unit, ok := specUnits[d.name]
			switch {
			case !ok:
				t.Errorf("%s metric %q missing from BENCHMARK.json", kind, d.name)
			case unit != d.unit:
				t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", kind, d.name, d.unit, unit)
			}
		}
		for n := range specUnits {
			if !seen[n] {
				t.Errorf("BENCHMARK.json %s metric %q is never emitted", kind, n)
			}
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	check("end_to_end", e2eMetrics, e2e)
	check("per_layer", layerMetrics, layers)
	for l := layer(0); l < numLayers; l++ {
		if _, ok := layers[layerNames[l]+"_us"]; !ok {
			t.Errorf("traced layer %s has no per_layer metric", layerNames[l])
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
}

func TestExpectationMatchesOnlyItsRequest(t *testing.T) {
	e := compileExpectation([]byte(`{"uri":"@URI@","score":0.123456789,"record":{"@uri":"@URI@"},"trace":"@TRACE@"}` + "\n"))
	good := []byte(`{"uri":"http://x/tt1000007/","score":0.8125,"record":{"@uri":"http://x/tt1000007/"},"trace":"0123456789abcdef0123456789abcdef"}` + "\n")
	if !e.match(good, "http://x/tt", "/", 1000007) {
		t.Fatal("reference output rejected")
	}
	for _, bad := range [][]byte{
		bytes.Replace(good, []byte("1000007"), []byte("1000008"), 1),
		bytes.Replace(good, []byte("0.8125"), []byte("0.2"), 1),
		bytes.Replace(good, []byte("0123"), []byte("zzzz"), 1),
		bytes.TrimSuffix(good, []byte("\n")),
	} {
		if e.match(bad, "http://x/tt", "/", 1000007) {
			t.Errorf("accepted %s", bad)
		}
	}
}

// TestSmokeEachWorkload runs every workload against the real daemon at
// a few thousand pages and checks that all outputs match and every
// metric is reported.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots extractd")
	}
	out := t.TempDir()
	bin, err := buildDaemon("..", out)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAll)
	env := &runEnv{bin: bin, workdir: t.TempDir(), out: out, pool: testPool, trace: true}
	for _, w := range workloads {
		w.warm, w.window, w.windows = 1000, 500, 2
		res, err := env.run(w, 7)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 || !res.correct() {
			t.Errorf("%s: %d of %d outputs failed (client %.2f cores)", w.name, res.failed, res.attempted, res.clientShare)
		}
		for _, m := range e2eMetrics {
			if v, ok := res.e2e[m.name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v", w.name, m.name, v)
			}
		}
		for _, m := range layerMetrics {
			if _, ok := res.layers[m.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, m.name)
			}
		}
	}
}
