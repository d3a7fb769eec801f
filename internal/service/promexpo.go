package service

import (
	"io"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Prometheus exposition of the metrics Snapshot. The families table is
// the whole catalogue, in exposition order: each entry declares one
// family's name, type, HELP and label keys, the Snapshot fields it
// renders and how it yields its samples. WriteProm renders the table,
// TestPromJSONParity checks that every Snapshot field is claimed by an
// entry, and cmd/metriclint lints the declarations.

// Family declares one metric family of the /metrics exposition.
type Family struct {
	Name string
	Type string // "counter", "gauge" or "histogram"
	Help string
	// Labels are the label keys of every sample, in render order;
	// histogram _bucket samples add le.
	Labels []string

	fields  []string // Snapshot fields rendered; "Pool.Workers" is nested
	samples func(*Snapshot, series)
}

// Families returns the declared catalogue in exposition order.
func Families() []Family { return slices.Clone(families) }

// WriteProm renders a Snapshot in the Prometheus text format (0.0.4).
// Family order is the table's and map-keyed series are sorted, so the
// output is deterministic for a given snapshot — scrape-diffable and
// testable. Every family's header renders, samples or not, so the family
// set is the same in every configuration.
func WriteProm(w io.Writer, snap Snapshot) error {
	p := obs.NewPromWriter(w)
	for i := range families {
		f := &families[i]
		p.Family(f.Name, f.Type, f.Help)
		f.samples(&snap, series{p, f})
	}
	return p.Err()
}

// series writes one family's samples, pairing label values with the
// family's declared keys.
type series struct {
	p *obs.PromWriter
	f *Family
}

func (e series) labels(values []string) []obs.Label {
	ls := make([]obs.Label, len(values))
	for i, v := range values {
		ls[i] = obs.Label{Key: e.f.Labels[i], Value: v}
	}
	return ls
}

func (e series) sample(v float64, values ...string) {
	e.p.Sample(e.f.Name, e.labels(values), v)
}

func (e series) histogram(h obs.HistogramSnapshot, values ...string) {
	e.p.HistogramSamples(e.f.Name, e.labels(values), h)
}

const (
	counter   = "counter"
	gauge     = "gauge"
	histogram = "histogram"
)

var families = []Family{
	{Name: "extractd_build_info", Type: gauge,
		Help:   "Build identity of the running extractd binary (value is always 1).",
		Labels: []string{"goversion", "revision"}, fields: []string{"Build"},
		samples: func(s *Snapshot, e series) { e.sample(1, s.Build.GoVersion, s.Build.Revision) }},
	value(gauge, "extractd_uptime_seconds", "Seconds since the daemon started.", "UptimeSeconds"),
	byKey(counter, "extractd_requests_total",
		"HTTP requests served, by endpoint.", "endpoint", "Requests"),
	byKey(counter, "extractd_request_errors_total",
		"HTTP requests that returned a non-2xx status, by endpoint.", "endpoint", "Errors"),
	value(counter, "extractd_pages_extracted_total",
		"Pages that completed extraction.", "PagesExtracted"),
	byKey(counter, "extractd_extraction_failures_total",
		"Detected extraction failures, by failure kind.", "kind", "ExtractionFailures"),
	byKey(counter, "extractd_lifecycle_events_total",
		"Wrapper lifecycle events (drift alarms, repairs, promotions, rollbacks).",
		"event", "Lifecycle"),
	value(counter, "extractd_page_cache_hits_total", "Parsed-page cache hits.", "PageCacheHits"),
	value(counter, "extractd_page_cache_misses_total", "Parsed-page cache misses.", "PageCacheMisses"),
	{Name: "extractd_router_decisions_total", Type: counter,
		Help:   "Page auto-routing outcomes, by outcome.",
		Labels: []string{"outcome"}, fields: []string{"RouterHits", "RouterMisses", "RouterUnrouted"},
		samples: func(s *Snapshot, e series) {
			e.sample(float64(s.RouterHits), "hit")
			e.sample(float64(s.RouterMisses), "miss")
			e.sample(float64(s.RouterUnrouted), "unrouted")
		}},
	{Name: "extractd_stream_extract_total", Type: counter,
		Help:   "Extractions by serving path: hit ran the compiled automaton over the token stream (no DOM), fallback parsed a tree.",
		Labels: []string{"outcome"}, fields: []string{"StreamHits", "StreamFallbacks"},
		samples: func(s *Snapshot, e series) {
			e.sample(float64(s.StreamHits), "hit")
			e.sample(float64(s.StreamFallbacks), "fallback")
		}},
	byKey(counter, "extractd_stream_fallback_total",
		"Extractions that fell back to parse+DOM, by reason (compile refusals, parsed-doc, no-source, depth).",
		"reason", "StreamFallbackReasons"),
	{Name: "extractd_extraction_duration_seconds", Type: histogram,
		Help:   "Single-page extraction latency.",
		fields: []string{"LatencySumSeconds", "LatencyCount", "LatencyHistogram"},
		samples: func(s *Snapshot, e series) {
			e.histogram(obs.HistogramSnapshot{
				Count: s.LatencyCount, Sum: s.LatencySumSeconds, Buckets: s.LatencyHistogram,
			})
		}},

	value(gauge, "extractd_pool_workers", "Extraction worker pool size.", "Pool.Workers"),
	value(gauge, "extractd_pool_queue_depth",
		"Tasks waiting in the extraction queue.", "Pool.QueueDepth"),
	value(gauge, "extractd_pool_queue_capacity",
		"Extraction queue slot count.", "Pool.QueueCapacity"),
	value(gauge, "extractd_pool_in_flight",
		"Tasks currently executing on pool workers.", "Pool.InFlight"),
	value(gauge, "extractd_pool_saturation_ratio",
		"In-flight tasks over worker count (1 = every worker busy).", "Pool.SaturationRatio"),

	perRepoVersion("extractd_repo_pages_total",
		"Pages extracted, by repository and version.",
		func(c RepoVersionCount) int64 { return c.Pages }),
	perRepoVersion("extractd_repo_failed_pages_total",
		"Pages with at least one detected failure, by repository and version.",
		func(c RepoVersionCount) int64 { return c.FailedPages }),
	perRepoVersion("extractd_repo_failures_total",
		"Detected extraction failures, by repository and version.",
		func(c RepoVersionCount) int64 { return c.Failures }),
	{Name: "extractd_repo_active_version", Type: gauge,
		Help:   "The active (serving) version id, by repository.",
		Labels: []string{"repo"}, fields: []string{"Repos"},
		samples: func(s *Snapshot, e series) {
			for _, c := range s.Repos {
				if c.Active {
					e.sample(float64(c.Version), c.Repo)
				}
			}
		}},

	{Name: "extractd_pipeline_stage_duration_seconds", Type: histogram,
		Help:   "Per-stage latency of the ingestion pipeline spine (source, classify, extract, sink).",
		Labels: []string{"stage"}, fields: []string{"Pipeline"},
		samples: func(s *Snapshot, e series) {
			for _, st := range s.Pipeline {
				e.histogram(st.Latency, st.Stage)
			}
		}},
	{Name: "extractd_pipeline_stage_in_flight", Type: gauge,
		Help:   "Pipeline work currently inside each stage.",
		Labels: []string{"stage"}, fields: []string{"Pipeline"},
		samples: func(s *Snapshot, e series) {
			for _, st := range s.Pipeline {
				e.sample(float64(st.InFlight), st.Stage)
			}
		}},
	{Name: "extractd_pipeline_stage_errors_total", Type: counter,
		Help:   "Stage-level errors (failed classifications, refused extractions, sink failures).",
		Labels: []string{"stage"}, fields: []string{"Pipeline"},
		samples: func(s *Snapshot, e series) {
			for _, st := range s.Pipeline {
				e.sample(float64(st.Errors), st.Stage)
			}
		}},

	byKey(gauge, "extractd_induction_jobs", "Induction jobs by state.", "state", "InductionJobs"),
	value(gauge, "extractd_unrouted_buffered_pages",
		"Unrouted pages retained in the induction buffer.", "UnroutedBuffered"),
	value(gauge, "extractd_unrouted_buffered_bytes",
		"Bytes of unrouted page markup retained in the induction buffer.", "UnroutedBufferedBytes"),
	value(counter, "extractd_unrouted_evicted_total",
		"Unrouted pages evicted from the induction buffer.", "UnroutedEvicted"),
	value(counter, "extractd_unrouted_dropped_total",
		"Unrouted pages the induction buffer refused outright (oversized, or no bucket available).",
		"UnroutedDropped"),

	value(counter, "extractd_fetch_retries_total", "Outbound fetch retry attempts.", "FetchRetries"),
	{Name: "extractd_fetch_total", Type: counter,
		Help:   "Terminal outbound fetch outcomes, by host and outcome (ok, transient, permanent, breaker_open).",
		Labels: []string{"host", "outcome"}, fields: []string{"Fetch"},
		samples: func(s *Snapshot, e series) {
			for _, f := range s.Fetch {
				e.sample(float64(f.Count), f.Host, f.Outcome)
			}
		}},
	{Name: "extractd_fetch_breaker_state", Type: gauge,
		Help:   "Per-host circuit-breaker state (0 closed, 1 half-open, 2 open).",
		Labels: []string{"host"}, fields: []string{"Breakers"},
		samples: func(s *Snapshot, e series) {
			for _, b := range s.Breakers {
				e.sample(float64(b.State), b.Host)
			}
		}},
	value(counter, "extractd_shed_total",
		"Requests rejected by pool-admission load shedding (503 + Retry-After).", "Shed"),
	byKey(counter, "extractd_panics_recovered_total",
		"Panics recovered without killing the daemon, by stage.", "stage", "PanicsRecovered"),

	byKey(counter, "extractd_recrawl_total",
		"Scheduled recrawl firings, by outcome (clean, repaired, failed).", "outcome", "Recrawls"),
	{Name: "extractd_recrawl_interval_seconds", Type: gauge,
		Help:   "Current drift-adaptive recrawl interval, by repository.",
		Labels: []string{"repo"}, fields: []string{"Schedules"},
		samples: func(s *Snapshot, e series) {
			for _, sc := range s.Schedules {
				e.sample(sc.IntervalSeconds, sc.Repo)
			}
		}},
	byKey(counter, "extractd_changefeed_records_total",
		"Change-feed events emitted, by kind (new, changed, vanished).", "kind", "ChangefeedRecords"),

	// The store families read zeros when the daemon runs memory-only.
	value(gauge, "extractd_store_wal_bytes",
		"Bytes in the live write-ahead log since the last compaction.", "Store.WALBytes"),
	value(counter, "extractd_store_wal_records_total",
		"Records appended to the write-ahead log.", "Store.WALRecords"),
	value(counter, "extractd_store_fsyncs_total", "fsync calls issued by the store.", "Store.Fsyncs"),
	value(counter, "extractd_store_torn_tails_total",
		"Torn or corrupt WAL tails truncated during recovery.", "Store.TornTails"),
	value(counter, "extractd_store_replay_records_total",
		"WAL records replayed at boot.", "Store.ReplayRecords"),
	value(gauge, "extractd_store_replay_duration_seconds",
		"Wall time of the boot WAL replay.", "Store.ReplayDurationSeconds"),
	value(gauge, "extractd_store_snapshot_age_seconds",
		"Seconds since the last snapshot was written (0 before the first).", "Store.SnapshotAgeSeconds"),
	value(counter, "extractd_store_snapshots_total",
		"Snapshots written (compactions).", "Store.Snapshots"),
}

// value declares a single-sample family of the numeric Snapshot field
// at path.
func value(typ, name, help, path string) Family {
	return Family{Name: name, Type: typ, Help: help, fields: []string{path},
		samples: func(s *Snapshot, e series) {
			v := field(s, path)
			if v.CanFloat() {
				e.sample(v.Float())
			} else {
				e.sample(float64(v.Int()))
			}
		}}
}

// byKey declares a family with one series per key of the
// map[string]int64 Snapshot field at path, in key order.
func byKey(typ, name, help, label, path string) Family {
	return Family{Name: name, Type: typ, Help: help, Labels: []string{label}, fields: []string{path},
		samples: func(s *Snapshot, e series) {
			m := field(s, path).Interface().(map[string]int64)
			for _, k := range slices.Sorted(maps.Keys(m)) {
				e.sample(float64(m[k]), k)
			}
		}}
}

// perRepoVersion declares a counter family with one series per
// repository version.
func perRepoVersion(name, help string, v func(RepoVersionCount) int64) Family {
	return Family{Name: name, Type: counter, Help: help,
		Labels: []string{"repo", "version"}, fields: []string{"Repos"},
		samples: func(s *Snapshot, e series) {
			for _, c := range s.Repos {
				e.sample(float64(v(c)), c.Repo, strconv.Itoa(c.Version))
			}
		}}
}

// field resolves a dotted Snapshot field path; a nil pointer on the way
// reads as its zero value.
func field(s *Snapshot, path string) reflect.Value {
	v := reflect.ValueOf(s).Elem()
	for _, name := range strings.Split(path, ".") {
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				v = reflect.Zero(v.Type().Elem())
			} else {
				v = v.Elem()
			}
		}
		v = v.FieldByName(name)
	}
	return v
}
