package induct

import (
	"fmt"
	"log/slog"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/resilient"
	"repro/internal/streamx"
)

// Config tunes the induction subsystem. The zero value means defaults.
type Config struct {
	// MinPages is how many captured pages a bucket needs before the
	// planner may promote it to a job (default 8).
	MinPages int
	// StableStreak is how many consecutive captures must have *matched*
	// the bucket's existing centroid (rather than founding or reshaping
	// it) before the centroid counts as stable (default 3).
	StableStreak int
	// MaxBytes bounds the retained pages across all buckets, measured
	// as approximate serialized size (default 32 MiB). Over the cap,
	// the oldest captures are evicted first; a single page over the
	// whole cap is refused outright.
	MaxBytes int64
	// MaxBuckets bounds concurrently tracked page clusters (default 32).
	MaxBuckets int
	// SampleSize caps the working sample handed to the rule builder
	// (default 10, the paper's §3.1 practice).
	SampleSize int
	// MinSample is the minimum number of oracle-covered pages a job
	// needs to run (default 2): one page seeds the candidate rule, the
	// rest check it.
	MinSample int
	// Workers sizes the job runner pool (default 1 — induction is
	// background work and must not starve the extraction pool).
	Workers int
	// Logger receives job state-transition events (queued, running,
	// staged, promoted, failed, cancelled). Nil discards them.
	Logger *slog.Logger
	// OnPanic, when non-nil, observes every recovered job-runner panic
	// (the job itself fails with the panic recorded as its error).
	OnPanic func(pe *resilient.PanicError)
}

// bucketing is how unrouted pages join buckets: the page-clustering
// threshold (0.65) and weights. Unrouted pages scored below the
// *routing* threshold against every repository, but among themselves
// cluster members match high.
var bucketing = cluster.DefaultConfig()

func (c Config) withDefaults() Config {
	if c.MinPages <= 0 {
		c.MinPages = 8
	}
	if c.StableStreak <= 0 {
		c.StableStreak = 3
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 32 << 20
	}
	if c.MaxBuckets <= 0 {
		c.MaxBuckets = 32
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 10
	}
	if c.MinSample <= 0 {
		c.MinSample = 2
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// Capture is one retained unrouted page, kept as raw markup: a
// pointer-free string the garbage collector never scans, where a parsed
// tree would be thousands of nodes per page. Trees are parsed only when
// an induction job samples the bucket.
type Capture struct {
	URI  string
	HTML string
	// Size is what the byte cap accounts for: len(HTML), the bytes the
	// capture actually retains (and journals).
	Size int64
	seq  int64
}

// Page parses the capture into a page for the rule builder.
func (c *Capture) Page() *core.Page { return core.NewPage(c.URI, c.HTML) }

// bucket is one incremental page cluster inside the buffer.
type bucket struct {
	id    string
	sig   *cluster.Signature
	caps  []*Capture // capture (seq) order: caps[0] is the oldest
	byURI map[string]*Capture
	// streak counts consecutive captures that matched the existing
	// centroid; the founding page and any re-founding reset it.
	streak  int
	lastSeq int64
	jobID   string
	bytes   int64
	// trace is the request trace ID of the most recent capture — the
	// thread an operator follows from an /ingest exchange to the
	// induction job the planner later mints over this bucket.
	trace string
}

// UnroutedBuffer captures pages the router could not place, bucketed by
// cluster signature — the raw material for induction jobs. Bounded in
// buckets and in retained bytes; all methods are safe for concurrent
// use.
type UnroutedBuffer struct {
	mu      sync.Mutex
	cfg     Config
	buckets map[string]*bucket
	order   []string // founding order, for deterministic iteration
	bytes   int64
	seq     int64
	nextID  int
	evicted int64
	dropped int64
	// journal, when set, receives every retained capture's markup for
	// the persistence WAL. Called under b.mu so record order matches
	// capture order; attached via Engine.SetJournal only after boot
	// replay, so replayed captures are not re-journaled.
	journal func(uri, html, trace string)
}

// NewUnroutedBuffer creates an empty buffer.
func NewUnroutedBuffer(cfg Config) *UnroutedBuffer {
	return &UnroutedBuffer{cfg: cfg.withDefaults(), buckets: map[string]*bucket{}}
}

// Add captures one unrouted page: it joins the bucket whose signature
// centroid it matches best above the bucket threshold (folding into the
// centroid), or founds a new bucket. It reports the bucket id and
// whether the page was retained (false when the bucket cap left no room
// for a new cluster).
func (b *UnroutedBuffer) Add(p *core.Page) (string, bool) {
	return b.addPage(p, "")
}

// addPage fingerprints a page itself (streaming its source when it is
// still unparsed) and captures it. Pages with neither source nor tree
// (pipeline error placeholders) are refused.
func (b *UnroutedBuffer) addPage(p *core.Page, trace string) (string, bool) {
	if p == nil || !hasMarkup(p) {
		return "", false
	}
	return b.addMarkup(p.URI, pageMarkup(p), streamx.FingerprintPage(p), trace)
}

func hasMarkup(p *core.Page) bool {
	_, lazy := p.Source()
	return lazy || p.Doc != nil
}

// pageMarkup is the markup a capture keeps: the raw source when the page
// still holds it, else (an eager page) the tree rendered once. Rendered markup re-parses to the same tree.
func pageMarkup(p *core.Page) string {
	if src, ok := p.Source(); ok {
		return src
	}
	return dom.Render(p.Doc)
}

// addMarkup is the buffer's one capture entry point: the page's URI and
// markup, its clustering features (streamx.Fingerprint of the markup —
// the router's fingerprint pass already computed them), and the trace ID
// of the request that delivered it, which the bucket remembers so
// induction jobs can name the traffic that triggered them. Live traffic,
// WAL replay and the page-based helpers all come through here, so
// replay re-runs exactly the bucketing the live run did.
func (b *UnroutedBuffer) addMarkup(uri, html string, f cluster.Features, trace string) (string, bool) {
	size := int64(len(html))
	b.mu.Lock()
	defer b.mu.Unlock()

	// A single page over the whole cap would otherwise evict every other
	// capture on its way in and then fall out itself: refuse it outright.
	if size > b.cfg.MaxBytes {
		b.dropped++
		return "", false
	}

	var best *bucket
	bestScore := bucketing.Threshold
	for _, id := range b.order {
		bk := b.buckets[id]
		if score := bk.sig.Match(f, bucketing.Weights); score >= bestScore {
			best, bestScore = bk, score
		}
	}
	if best == nil {
		if len(b.buckets) >= b.cfg.MaxBuckets && !b.evictBucketLocked() {
			b.dropped++
			return "", false
		}
		b.nextID++
		best = &bucket{id: fmt.Sprintf("b%d", b.nextID), sig: cluster.NewSignature(),
			byURI: map[string]*Capture{}}
		b.buckets[best.id] = best
		b.order = append(b.order, best.id)
		best.sig.Add(f)
	} else if old, ok := best.byURI[uri]; ok {
		// A re-captured URI replaces its retained copy but is NOT
		// re-absorbed into the centroid and does not advance the
		// stability streak — a client retry loop re-posting one page
		// must not inflate that page's feature weights (which would
		// push genuine cluster members below the bucket threshold) or
		// fake centroid stability.
		b.removeCaptureLocked(best, old)
	} else {
		best.streak++
		best.sig.Add(f)
	}
	b.seq++
	c := &Capture{URI: uri, HTML: html, Size: size, seq: b.seq}
	best.caps = append(best.caps, c)
	best.byURI[uri] = c
	best.bytes += size
	best.lastSeq = b.seq
	if trace != "" {
		best.trace = trace
	}
	b.bytes += size
	b.evictBytesLocked()
	if b.journal != nil {
		b.journal(uri, html, trace)
	}
	return best.id, true
}

// evictBytesLocked drops the globally oldest captures until the byte cap
// holds. Buckets with an assigned job are spared: a *running* job
// snapshots its pages at start, but a queued-but-not-yet-running job
// still reads its bucket when a worker picks it up, and draining that
// bucket below MinSample would fail the job spuriously. Job-assigned
// buckets become eligible again only when every jobless bucket is
// already empty.
func (b *UnroutedBuffer) evictBytesLocked() {
	for b.bytes > b.cfg.MaxBytes {
		victim := b.oldestCaptureLocked(true)
		if victim == nil {
			// Nothing evictable outside job-assigned buckets: take the
			// oldest capture wherever it is rather than blow the cap.
			victim = b.oldestCaptureLocked(false)
		}
		if victim == nil {
			return
		}
		b.removeCaptureLocked(victim, victim.caps[0])
		b.evicted++
		if len(victim.caps) == 0 && victim.jobID == "" {
			b.dropBucketLocked(victim.id)
		}
	}
}

// oldestCaptureLocked finds the bucket holding the globally oldest
// capture; skipJobs excludes buckets pinned by a queued, running or
// staged job.
func (b *UnroutedBuffer) oldestCaptureLocked(skipJobs bool) *bucket {
	var victim *bucket
	for _, id := range b.order {
		bk := b.buckets[id]
		if len(bk.caps) == 0 || (skipJobs && bk.jobID != "") {
			continue
		}
		if victim == nil || bk.caps[0].seq < victim.caps[0].seq {
			victim = bk
		}
	}
	return victim
}

// evictBucketLocked makes room for a new bucket by dropping the
// least-recently-captured bucket without an active job. It reports
// whether room was made.
func (b *UnroutedBuffer) evictBucketLocked() bool {
	var victim *bucket
	for _, id := range b.order {
		bk := b.buckets[id]
		if bk.jobID != "" {
			continue
		}
		if victim == nil || bk.lastSeq < victim.lastSeq {
			victim = bk
		}
	}
	if victim == nil {
		return false
	}
	b.evicted += int64(len(victim.caps))
	b.dropBucketLocked(victim.id)
	return true
}

func (b *UnroutedBuffer) removeCaptureLocked(bk *bucket, c *Capture) {
	for i, cc := range bk.caps {
		if cc == c {
			bk.caps = append(bk.caps[:i], bk.caps[i+1:]...)
			break
		}
	}
	delete(bk.byURI, c.URI)
	bk.bytes -= c.Size
	b.bytes -= c.Size
}

func (b *UnroutedBuffer) dropBucketLocked(id string) {
	bk, ok := b.buckets[id]
	if !ok {
		return
	}
	b.bytes -= bk.bytes
	delete(b.buckets, id)
	for i, oid := range b.order {
		if oid == id {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
}

// Len reports the total retained pages.
func (b *UnroutedBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, bk := range b.buckets {
		n += len(bk.caps)
	}
	return n
}

// Bytes reports the retained page bytes.
func (b *UnroutedBuffer) Bytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bytes
}

// Evicted reports pages dropped under the byte or bucket caps.
func (b *UnroutedBuffer) Evicted() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.evicted
}

// Dropped reports pages the buffer *refused* outright — a single page
// over the whole byte cap, or a page that would found a new bucket when
// every existing bucket is pinned by a job. Distinct from Evicted:
// evicted pages were retained and later displaced; dropped pages never
// made it in, so a non-zero value means unrouted traffic is silently
// not becoming induction material.
func (b *UnroutedBuffer) Dropped() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// BucketInfo is a point-in-time view of one bucket, shaped for JSON.
type BucketInfo struct {
	ID string `json:"id"`
	// Name is the cluster name an induced repository would get.
	Name   string `json:"name"`
	Pages  int    `json:"pages"`
	Bytes  int64  `json:"bytes"`
	Streak int    `json:"stableStreak"`
	// SignaturePages counts every page the centroid absorbed, including
	// evicted ones.
	SignaturePages int    `json:"signaturePages"`
	JobID          string `json:"jobId,omitempty"`
	// Trace is the trace ID of the request that delivered the latest
	// capture.
	Trace string `json:"trace,omitempty"`
	// URIs lists the retained page URIs in capture order — what an
	// operator supplies examples for.
	URIs []string `json:"uris,omitempty"`
}

// Buckets snapshots every bucket in founding order.
func (b *UnroutedBuffer) Buckets() []BucketInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]BucketInfo, 0, len(b.order))
	for _, id := range b.order {
		bk := b.buckets[id]
		info := BucketInfo{ID: bk.id, Pages: len(bk.caps), Bytes: bk.bytes,
			Streak: bk.streak, SignaturePages: bk.sig.Pages, JobID: bk.jobID,
			Trace: bk.trace}
		uris := make([]string, 0, len(bk.caps))
		for _, c := range bk.caps {
			uris = append(uris, c.URI)
		}
		info.URIs = uris
		info.Name = cluster.DeriveName(uris, bk.id)
		out = append(out, info)
	}
	return out
}

// snapshot returns the bucket's captures (in capture order), its
// signature clone and derived name; ok is false for an unknown id.
func (b *UnroutedBuffer) snapshot(id string) (caps []*Capture, sig *cluster.Signature, name string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bk, found := b.buckets[id]
	if !found {
		return nil, nil, "", false
	}
	caps = append([]*Capture(nil), bk.caps...)
	uris := make([]string, 0, len(caps))
	for _, c := range caps {
		uris = append(uris, c.URI)
	}
	return caps, bk.sig.Clone(), cluster.DeriveName(uris, bk.id), true
}

// setJob links a bucket to an active job; it fails when the bucket is
// unknown or already has one.
func (b *UnroutedBuffer) setJob(bucketID, jobID string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	bk, ok := b.buckets[bucketID]
	if !ok || bk.jobID != "" {
		return false
	}
	bk.jobID = jobID
	return true
}

// clearJob unlinks a failed or cancelled job so the bucket can be
// planned again once new evidence arrives.
func (b *UnroutedBuffer) clearJob(bucketID string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if bk, ok := b.buckets[bucketID]; ok {
		bk.jobID = ""
	}
}

// dropBucket removes a bucket outright — called when its job's
// repository was promoted and the pages became routable.
func (b *UnroutedBuffer) dropBucket(bucketID string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dropBucketLocked(bucketID)
}
