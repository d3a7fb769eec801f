package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket latency histogram built for hot paths:
// Observe is lock-free and allocation-free (one atomic add on its
// bucket, a CAS loop for the float sum), so per-page instrumentation
// costs a few atomic operations and nothing else. Buckets are upper
// bounds in ascending order; the implicit last bucket is +Inf. The zero
// Histogram is unusable — construct with NewHistogram.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64  // float64 bits of the running sum
}

// DefaultLatencyBuckets is the shared latency bucket layout, in seconds:
// a coarse log-ish scale from sub-millisecond page extractions to
// multi-second whole-run stalls.
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// NewHistogram creates a histogram over the given ascending upper
// bounds (nil: DefaultLatencyBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. Safe for concurrent use; never allocates.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤ ~16) and the scan beats a
	// binary search's branch misses at this size — and neither allocates.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramBucket is one bucket of a snapshot: the inclusive upper
// bound and the count of observations in this bucket alone (not
// cumulative — the Prometheus writer accumulates at render time).
// LE 0 marks the +Inf bucket: snapshots are marshalled as JSON in
// /metrics and JSON has no representation for infinity.
type HistogramBucket struct {
	LE    float64 `json:"le,omitempty"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets []HistogramBucket `json:"buckets"`
}

// Snapshot copies the histogram counters. Count is the sum of the
// bucket counts read, so it always equals the cumulative +Inf bucket.
// Concurrent Observes may land between reads: the sum can then be off
// by the handful of observations in flight.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Sum:     math.Float64frombits(h.sumBits.Load()),
		Buckets: make([]HistogramBucket, len(h.counts)),
	}
	for i := range h.counts {
		le := 0.0 // the +Inf bucket, in the JSON-safe convention
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = HistogramBucket{LE: le, Count: h.counts[i].Load()}
		s.Count += s.Buckets[i].Count
	}
	return s
}
