package main

// workloadKind selects the traffic driver.
type workloadKind int

const (
	// ingestKind streams NDJSON pages through one POST /ingest exchange.
	ingestKind workloadKind = iota
	// extractKind posts single pages to POST /extract from a closed loop
	// of clients.
	extractKind
)

// workload is one traffic mix. Page counts are per round: every round
// boots a fresh daemon, sends warm pages, then measures windows
// consecutive windows of window pages each. They are frozen so that the
// state a round leaves behind (captures, WAL, heap) is the same on every
// commit; a window takes about half a second at the commit that
// introduced the benchmark.
type workload struct {
	name  string
	kind  workloadKind
	procs int // daemon GOMAXPROCS and -workers
	// mixed adds the stocks cluster (no repository) and drifted books
	// pages to the ingest stream.
	mixed   bool
	warm    int
	window  int
	windows int
	why     string
}

// total is the number of pages one round sends.
func (w workload) total() int { return w.warm + w.window*w.windows }

var workloads = []workload{
	{
		name: "ingest-routed", kind: ingestKind, procs: 2,
		warm: 10000, window: 10000, windows: 4,
		why: "all-routed movies+books /ingest stream on 2 cores; no page-cache hits, as in a real migration",
	},
	{
		name: "ingest-routed-1p", kind: ingestKind, procs: 1,
		warm: 10000, window: 9000, windows: 4,
		why: "same stream on GOMAXPROCS=1 -workers 1: the single-thread control for lock and handoff changes",
	},
	{
		name: "ingest-mixed", kind: ingestKind, procs: 2, mixed: true,
		warm: 10000, window: 6000, windows: 4,
		why: "1/3 unrouted stocks pages and drifted books pages: full routes, parses, captures, WAL appends, failure path",
	},
	{
		name: "extract-single", kind: extractKind, procs: 2,
		warm: 4000, window: 6000, windows: 4,
		why: "closed loop of 2 /extract clients over a 64-page working set: HTTP envelope, admission, DOM fallback, page cache",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported metric and its unit. Direction and
// regression bound live in BENCHMARK.json.
type metricDef struct{ name, unit string }

// e2eMetrics are what a user of extractd sees; they are reported with
// -trace 0.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"pages_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_page", "us"},
	{"rss_peak_mb", "MB"},
}

// layerMetrics are reported with -trace 1. The *_us layers are self
// times per page from the traced in-process replay, except
// pipeline.classify_us and pipeline.extract_us, which are stage means
// scraped from the daemon's /metrics. Ratios and store figures are
// scraped from the daemon during the served rounds.
var layerMetrics = []metricDef{
	{"pipeline.source_us", "us"},
	{"pipeline.ndjson_decode_us", "us"},
	{"service.pagecache_key_us", "us"},
	{"pipeline.classify_us", "us"},
	{"pipeline.extract_us", "us"},
	{"cluster.route_us", "us"},
	{"cluster.fast_ratio", "ratio"},
	{"streamx.fingerprint_us", "us"},
	{"dom.parse_us", "us"},
	{"induct.capture_us", "us"},
	{"service.pool_handoff_us", "us"},
	{"extract.stream_us", "us"},
	{"extract.stream_hit_ratio", "ratio"},
	{"extract.dom_us", "us"},
	{"service.metrics_us", "us"},
	{"lifecycle.observe_us", "us"},
	{"pipeline.sink_us", "us"},
	{"pipeline.encode_us", "us"},
	{"service.encode_us", "us"},
	{"service.http_remainder_us", "us"},
	{"service.pagecache_hit_ratio", "ratio"},
	{"service.shed_ratio", "ratio"},
	{"service.pool_queue_depth", "count"},
	{"store.wal_bytes_per_page", "B"},
	{"store.fsyncs_per_s", "1/s"},
	{"trace.overhead_ratio", "ratio"},
	{"bench.client_cpu_share", "cores"},
}
