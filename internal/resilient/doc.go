// Package resilient supplies the failure-tolerance primitives threaded
// through extractd's I/O and concurrency boundaries: a Retrier (capped
// exponential backoff with full jitter and Retry-After awareness), a per-dependency circuit Breaker
// (closed/open/half-open over a sliding failure-rate window, with
// bounded half-open probe admission), a KeyedLimiter (per-key
// concurrency caps, e.g. in-flight fetches per origin host), and
// PanicError (a recovered panic carried as a structured error so one
// poisoned page or rule never kills the daemon).
//
// Two design rules hold across the package:
//
//   - Retries are for idempotent work only. The Retrier retries nothing
//     it is not explicitly told is safe: only errors the caller wrapped
//     with Transient (or TransientAfter) are ever re-attempted, so a
//     non-idempotent operation can flow through the same Retrier as long
//     as its failures are left unclassified.
//
//   - Everything is deterministic under test. Time flows through an
//     injectable Clock and jitter through an injectable uniform source,
//     so backoff schedules and breaker transitions are
//     exactly reproducible with a FakeClock and a fixed Rand.
//
// The webfetch.Fetcher is the package's primary consumer (retry +
// breaker + per-host caps around every page fetch); service.Pool returns
// a PanicError when an extraction task panics on the caller's goroutine.
package resilient
