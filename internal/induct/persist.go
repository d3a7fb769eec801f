package induct

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/streamx"
)

// Persistence support: the engine's full state (buffer buckets, job
// records, operator examples) exports to JSON-friendly structs for the
// store snapshot, and the WAL's capture / job / examples records apply
// back idempotently. Captures already hold their markup, so snapshots
// and WAL records write it as is and restore never parses: features come
// from streamx.Fingerprint, sizes are the markup's length. Older records
// hold the page's rendered tree instead of its source; that is markup
// too, and it restores the same buckets (charged the rendered length).

// CaptureState is one retained page, shaped for the snapshot.
type CaptureState struct {
	URI  string `json:"uri"`
	HTML string `json:"html"`
	Seq  int64  `json:"seq"`
}

// BucketState is one buffer bucket, shaped for the snapshot.
type BucketState struct {
	ID      string             `json:"id"`
	Sig     *cluster.Signature `json:"sig"`
	Streak  int                `json:"streak"`
	LastSeq int64              `json:"lastSeq"`
	JobID   string             `json:"jobId,omitempty"`
	Trace   string             `json:"trace,omitempty"`
	Caps    []CaptureState     `json:"caps,omitempty"`
}

// BufferState is the unrouted buffer's full state, shaped for the
// snapshot. Buckets appear in founding order.
type BufferState struct {
	Buckets []BucketState `json:"buckets,omitempty"`
	Seq     int64         `json:"seq"`
	NextID  int           `json:"nextId"`
	Evicted int64         `json:"evicted,omitempty"`
	Dropped int64         `json:"dropped,omitempty"`
}

// EngineState is the induction subsystem's full state, shaped for the
// snapshot.
type EngineState struct {
	Buffer   *BufferState                   `json:"buffer,omitempty"`
	Jobs     []*Job                         `json:"jobs,omitempty"`
	NextJob  int                            `json:"nextJob"`
	Examples map[string]map[string][]string `json:"examples,omitempty"`
}

// exportState copies the buffer under b.mu.
func (b *UnroutedBuffer) exportState() *BufferState {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := &BufferState{
		Seq: b.seq, NextID: b.nextID, Evicted: b.evicted, Dropped: b.dropped,
	}
	for _, id := range b.order {
		bk := b.buckets[id]
		bs := BucketState{
			ID: bk.id, Sig: bk.sig.Clone(), Streak: bk.streak,
			LastSeq: bk.lastSeq, JobID: bk.jobID, Trace: bk.trace,
		}
		for _, c := range bk.caps {
			bs.Caps = append(bs.Caps, CaptureState{
				URI: c.URI, HTML: c.HTML, Seq: c.seq,
			})
		}
		st.Buckets = append(st.Buckets, bs)
	}
	return st
}

// restoreState rebuilds the buffer from a snapshot: sizes and byte
// totals recompute from the markup, derived indexes rebuild.
func (b *UnroutedBuffer) restoreState(st *BufferState) {
	if st == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buckets = map[string]*bucket{}
	b.order = nil
	b.bytes = 0
	b.seq = st.Seq
	b.nextID = st.NextID
	b.evicted = st.Evicted
	b.dropped = st.Dropped
	for _, bs := range st.Buckets {
		sig := bs.Sig
		if sig == nil {
			sig = cluster.NewSignature()
		}
		bk := &bucket{
			id: bs.ID, sig: sig.Clone(), streak: bs.Streak,
			lastSeq: bs.LastSeq, jobID: bs.JobID, trace: bs.Trace,
			byURI: map[string]*Capture{},
		}
		for _, cs := range bs.Caps {
			c := &Capture{URI: cs.URI, HTML: cs.HTML, Size: int64(len(cs.HTML)), seq: cs.Seq}
			bk.caps = append(bk.caps, c)
			bk.byURI[cs.URI] = c
			bk.bytes += c.Size
		}
		b.bytes += bk.bytes
		b.buckets[bk.id] = bk
		b.order = append(b.order, bk.id)
	}
}

// restoreJobLink re-pins a bucket to its job during replay; unlike
// setJob it tolerates the link already being present (snapshot and WAL
// overlap on purpose).
func (b *UnroutedBuffer) restoreJobLink(bucketID, jobID string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if bk, ok := b.buckets[bucketID]; ok && (bk.jobID == "" || bk.jobID == jobID) {
		bk.jobID = jobID
	}
}

// clearJobIf unlinks a bucket only when it is still pinned to the given
// job — replaying an old job's failure must not release a newer job's
// claim on the same bucket.
func (b *UnroutedBuffer) clearJobIf(bucketID, jobID string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if bk, ok := b.buckets[bucketID]; ok && bk.jobID == jobID {
		bk.jobID = ""
	}
}

// Export copies the example store (URI → component → values) for the
// snapshot; byPath rebuilds from it on restore.
func (t *MapTruth) Export() map[string]map[string][]string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[string]map[string][]string, len(t.m))
	for uri, vals := range t.m {
		cp := make(map[string][]string, len(vals))
		for comp, vs := range vals {
			cp[comp] = append([]string(nil), vs...)
		}
		out[uri] = cp
	}
	return out
}

// ExportState snapshots the whole induction subsystem. Safe to call
// concurrently with captures and job transitions; the store's replay
// protocol tolerates the capture racing the WAL (records are
// idempotent upserts).
func (e *Engine) ExportState() *EngineState {
	e.mu.Lock()
	jobs := make([]*Job, 0, len(e.order))
	for _, id := range e.order {
		jobs = append(jobs, e.jobs[id].clone())
	}
	nextJob := e.nextJob
	e.mu.Unlock()
	return &EngineState{
		Buffer:   e.buffer.exportState(),
		Jobs:     jobs,
		NextJob:  nextJob,
		Examples: e.examples.Export(),
	}
}

// RestoreState rebuilds the subsystem from a snapshot. Call before
// WAL replay and before any traffic; ResumeJobs (after replay) rebuilds
// the run queue.
func (e *Engine) RestoreState(st *EngineState) {
	if st == nil {
		return
	}
	e.buffer.restoreState(st.Buffer)
	if st.Examples != nil {
		e.examples.Merge(st.Examples)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.jobs = map[string]*Job{}
	e.order = nil
	for _, j := range st.Jobs {
		c := j.clone()
		e.jobs[c.ID] = c
		e.order = append(e.order, c.ID)
	}
	if st.NextJob > e.nextJob {
		e.nextJob = st.NextJob
	}
	for _, j := range st.Jobs {
		e.bumpNextJobLocked(j.ID)
	}
}

// ApplyCapture replays one WAL capture record by re-running the
// bucketing logic — deterministic given identical record order, so
// bucket ids, centroids and eviction decisions land exactly where the
// original run put them. (Records written when captures were charged a
// tree-size estimate rather than their markup's length keep their ids
// and centroids, but under byte-cap pressure may evict differently.)
func (e *Engine) ApplyCapture(uri, html, trace string) {
	e.buffer.addMarkup(uri, html, streamx.Fingerprint(uri, html), trace)
}

// ApplyJobRecord replays one WAL job record: upsert by ID (the last
// record per job wins) and re-pin or release the job's bucket to match
// the recorded state.
func (e *Engine) ApplyJobRecord(rec *Job) {
	if rec == nil || rec.ID == "" {
		return
	}
	e.mu.Lock()
	c := rec.clone()
	if _, ok := e.jobs[rec.ID]; !ok {
		e.order = append(e.order, rec.ID)
	}
	e.jobs[rec.ID] = c
	e.bumpNextJobLocked(rec.ID)
	e.mu.Unlock()

	switch rec.State {
	case JobQueued, JobRunning, JobStaged:
		e.buffer.restoreJobLink(rec.Bucket, rec.ID)
	case JobFailed, JobCancelled:
		e.buffer.clearJobIf(rec.Bucket, rec.ID)
	case JobPromoted:
		e.buffer.dropBucket(rec.Bucket)
	}
}

// ApplyExamples replays one WAL examples record.
func (e *Engine) ApplyExamples(examples map[string]map[string][]string) {
	e.examples.Merge(examples)
}

// bumpNextJobLocked keeps the job-id counter ahead of every restored
// id ("j<N>"); caller holds e.mu.
func (e *Engine) bumpNextJobLocked(id string) {
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n > e.nextJob {
		e.nextJob = n
	}
}

// ResumeJobs rebuilds the run queue after restore + replay: queued jobs
// re-queue in creation order, and jobs that were mid-run when the
// process died restart cleanly from queued (their bucket is still
// pinned, so the material is intact). It returns how many jobs were
// handed back to the workers.
func (e *Engine) ResumeJobs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pending = nil
	e.active = 0
	requeued := 0
	for _, id := range e.order {
		j := e.jobs[id]
		switch j.State {
		case JobRunning:
			j.State = JobQueued
			j.Updated = time.Now()
			j.Started = time.Time{}
			e.log().Info("induct.job.restarted", "job", j.ID, "bucket", j.Bucket)
			fallthrough
		case JobQueued:
			e.pending = append(e.pending, id)
			e.active++
			requeued++
		}
	}
	if requeued > 0 {
		e.cond.Broadcast()
	}
	return requeued
}
