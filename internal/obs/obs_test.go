package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatal("two minted trace IDs collided")
	}
	if len(a) != 32 || !ValidTraceID(a) {
		t.Fatalf("minted ID %q is not a valid 32-char trace ID", a)
	}

	ctx := WithTrace(context.Background(), a)
	if got := Trace(ctx); got != a {
		t.Fatalf("Trace = %q, want %q", got, a)
	}
	if got := Trace(context.Background()); got != "" {
		t.Fatalf("Trace on a bare context = %q, want empty", got)
	}
	if WithTrace(context.Background(), "") != context.Background() {
		t.Fatal("WithTrace(\"\") should return the context unchanged")
	}

	valid := []string{"abcd1234", "A-b_8901", strings.Repeat("f", 64)}
	invalid := []string{"", "short", strings.Repeat("f", 65), "has space8", "inject\n90", "héx45678"}
	for _, id := range valid {
		if !ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = false, want true", id)
		}
	}
	for _, id := range invalid {
		if ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = true, want false", id)
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 3} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-5.65) > 1e-9 {
		t.Fatalf("Sum = %v, want 5.65", s.Sum)
	}
	wantCounts := []int64{2, 1, 2} // ≤0.1, ≤1, +Inf
	if len(s.Buckets) != len(wantCounts) {
		t.Fatalf("got %d buckets, want %d", len(s.Buckets), len(wantCounts))
	}
	for i, want := range wantCounts {
		if s.Buckets[i].Count != want {
			t.Errorf("bucket %d count = %d, want %d", i, s.Buckets[i].Count, want)
		}
	}
	if s.Buckets[2].LE != 0 {
		t.Errorf("last bucket LE = %v, want 0 (the JSON-safe +Inf marker)", s.Buckets[2].LE)
	}
	// The snapshot must survive json.Marshal — it is served by /metrics.
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
}

func TestHistogramObserveZeroAllocs(t *testing.T) {
	h := NewHistogram(nil)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.003) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f/op, want 0", allocs)
	}
}

// TestHistogramConcurrent snapshots while 8 goroutines observe: every
// snapshot's Count must equal its +Inf bucket (the sum of the buckets).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.01 * float64(i%3))
			}
		}()
	}
	for done := false; !done; {
		s := h.Snapshot()
		done = s.Count == 8000
		inf := int64(0)
		for _, b := range s.Buckets {
			inf += b.Count
		}
		if s.Count != inf {
			t.Fatalf("Count = %d, +Inf bucket = %d", s.Count, inf)
		}
	}
	wg.Wait()
}

func TestPromWriterOutput(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Family("extractd_pages_total", "counter", "Pages.")
	p.Sample("extractd_pages_total", nil, 42)
	p.Family("extractd_pool_workers", "gauge", "Workers.")
	p.Sample("extractd_pool_workers", nil, 4)
	p.Family("extractd_requests_total", "counter", "Requests with \"quotes\"\nand newline.")
	p.Sample("extractd_requests_total", []Label{{Key: "endpoint", Value: `a"b\c` + "\n"}}, 7)
	p.Family("extractd_lat_seconds", "histogram", "Latency.")
	p.HistogramSamples("extractd_lat_seconds", nil, HistogramSnapshot{
		Count: 3, Sum: 0.25,
		Buckets: []HistogramBucket{{LE: 0.1, Count: 2}, {LE: 0, Count: 1}},
	})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP extractd_pages_total Pages.\n# TYPE extractd_pages_total counter\nextractd_pages_total 42\n",
		"# TYPE extractd_pool_workers gauge\nextractd_pool_workers 4\n",
		`extractd_requests_total{endpoint="a\"b\\c\n"} 7`,
		"Requests with \"quotes\"\\nand newline.",
		`extractd_lat_seconds_bucket{le="0.1"} 2`,
		`extractd_lat_seconds_bucket{le="+Inf"} 3`, // cumulative
		"extractd_lat_seconds_sum 0.25",
		"extractd_lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestParsePromRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Family("extractd_pages_total", "counter", "Pages.")
	p.Sample("extractd_pages_total", nil, 42)
	p.Family("extractd_lat_seconds", "histogram", "Latency.")
	p.HistogramSamples("extractd_lat_seconds", []Label{{Key: "stage", Value: "extract"}}, HistogramSnapshot{
		Count: 3, Sum: 0.25,
		Buckets: []HistogramBucket{{LE: 0.1, Count: 2}, {LE: 0, Count: 1}},
	})
	fams, err := ParseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 2 {
		t.Fatalf("parsed %d families, want 2", len(fams))
	}
	if fams[0].Name != "extractd_pages_total" || fams[0].Type != "counter" ||
		fams[0].Help != "Pages." || len(fams[0].Samples) != 1 || fams[0].Samples[0].Value != 42 {
		t.Fatalf("counter family mismatch: %+v", fams[0])
	}
	h := fams[1]
	if h.Type != "histogram" || len(h.Samples) != 4 { // 2 buckets + sum + count
		t.Fatalf("histogram family mismatch: %+v", h)
	}
	if got := h.Samples[1].Label("le"); got != "+Inf" {
		t.Fatalf("last bucket le = %q, want +Inf", got)
	}
	if got := h.Samples[0].Label("stage"); got != "extract" {
		t.Fatalf("stage label = %q, want extract", got)
	}

	if _, err := ParseProm(strings.NewReader("orphan_sample 1\n")); err == nil {
		t.Fatal("sample without a declared family should fail to parse")
	}
}

func TestLintRules(t *testing.T) {
	exposition := `# HELP wrong_total requests
# TYPE wrong_total counter
wrong_total 1
# HELP extractd_pages counter without suffix
# TYPE extractd_pages counter
extractd_pages{uri="x"} 1
# HELP extractd_pool_workers ok gauge
# TYPE extractd_pool_workers gauge
extractd_pool_workers 4
# HELP extractd_lat histogram without unit
# TYPE extractd_lat histogram
extractd_lat_bucket{le="+Inf"} 1
extractd_lat_sum 1
extractd_lat_count 1
`
	fams, err := ParseProm(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	problems := Lint(fams, LintOptions{})
	joined := strings.Join(problems, "\n")
	for _, want := range []string{
		`wrong_total: missing "extractd_" prefix`,
		"extractd_pages: counter must end in _total",
		`extractd_pages: label "uri" not in the cardinality allowlist`,
		"extractd_lat: histogram must end in _seconds or _bytes",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("lint problems missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "extractd_pool_workers") {
		t.Errorf("clean gauge flagged:\n%s", joined)
	}
}

func TestNewLoggerTraceStamping(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithTrace(context.Background(), "abcdef1234567890")
	log.InfoContext(ctx, "hello", "k", "v")
	log.Info("no-trace")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["trace"] != "abcdef1234567890" || first["k"] != "v" {
		t.Fatalf("traced record missing attrs: %v", first)
	}
	if strings.Contains(lines[1], `"trace":`) {
		t.Fatalf("untraced record carries a trace attr: %s", lines[1])
	}

	// Debug is below the configured level.
	buf.Reset()
	log.Debug("hidden")
	if buf.Len() != 0 {
		t.Fatalf("debug record leaked through info level: %s", buf.String())
	}

	if _, err := NewLogger(&buf, "yaml", "info"); err == nil {
		t.Fatal("unknown format should error")
	}
	if _, err := NewLogger(&buf, "text", "loud"); err == nil {
		t.Fatal("unknown level should error")
	}
}

func TestNewLoggerWithAttrsKeepsTrace(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithTrace(context.Background(), "abcdef1234567890")
	log.With("component", "test").InfoContext(ctx, "msg")
	if !strings.Contains(buf.String(), `"trace":"abcdef1234567890"`) {
		t.Fatalf("With() dropped the trace decoration: %s", buf.String())
	}
}
