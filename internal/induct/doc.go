// Package induct closes the system's loop: it turns the pages a running
// service could NOT serve into new rule repositories, making extraction
// self-extending instead of fixed at boot.
//
// Since the signature router landed, extractd can only *report* traffic
// it holds no rules for — unrouted pages are counted and dropped. The
// paper's core contribution, however, is semi-automatic wrapper
// generation (the candidate/check/refine loop of §3, driven offline by
// retrozilla). This package runs that loop online, as background jobs
// over the unrouted traffic itself:
//
//	unrouted page → UnroutedBuffer (signature-bucketed capture)
//	             → Planner (bucket stable + big enough + truth coverage → Job)
//	             → Runner (working sample → build/check/refine → repository)
//	             → Stager (staged registry version, awaiting human Promote)
//
// UnroutedBuffer clusters captured pages incrementally, the online
// counterpart of cluster.ClusterPages: each page joins the bucket whose
// cluster.Signature centroid it matches best, or founds a new one. The
// buffer is bounded both in buckets and in retained page bytes; when the
// byte cap is hit the oldest captures go first. Captures keep the page's
// raw markup, never a parsed tree, and are charged its length: the
// features come from the router's stream fingerprint pass
// (streamx.FingerprintPage), and a tree is parsed only when a job
// samples the bucket.
//
// The Planner promotes a bucket to an induction Job once it has enough
// pages, a stable centroid (a streak of captures that matched the
// existing signature rather than reshaping it), and enough pages the
// oracle can answer for. The human contribution of the Retrozilla
// scenario — pointing at component values — is supplied by a pluggable
// TruthSource chain: operator-supplied examples (POST /induce),
// golden values remembered by the lifecycle monitors, or a truth.json
// loaded from disk; core.ValueOracle re-locates those values in the
// captured pages exactly as it does for §7 repair.
//
// The Runner executes jobs on a small worker pool: it selects a working
// sample (§3.1) from the oracle-covered captures, drives the
// candidate/check/refine loop per component (core.Builder, the same
// engine retrozilla and repair use), assembles a repository named after
// the bucket's URL pattern with the bucket signature recorded, and hands
// it to the Stager. Staging never activates anything: the result is a
// staged registry version that a human (or test harness) promotes via
// POST /jobs/{id}/promote, at which point the service registers the
// signature with its router and the previously-unrouted cluster starts
// extracting.
//
// Both the extractd daemon (-induct) and the retrozilla CLI (-induct
// batch mode) drive the same Engine, so the online and offline halves of
// wrapper induction share one job implementation.
package induct
