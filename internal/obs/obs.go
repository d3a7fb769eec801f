// Package obs is extractd's observability toolkit: the shared pieces
// that turn the daemon from a black box into an operable fleet member.
//
//   - Trace IDs: one opaque ID minted (or accepted) at request ingress,
//     carried on the context through every pipeline stage and background
//     job, echoed in the X-Trace-Id response header, NDJSON result
//     lines, structured log lines and induction job records — so one
//     grep follows one page end to end.
//   - Histograms: fixed-bucket, atomic, zero-allocation latency
//     histograms safe for the ingest hot path (Observe is lock-free and
//     allocation-free; see the AllocsPerRun tests). Histogram is the
//     daemon's one histogram type: per-stage pipeline latency and
//     per-page extraction latency both use it.
//   - Prometheus exposition: a text-format (version 0.0.4) writer and a
//     minimal parser/linter, so /metrics can serve the standard scrape
//     format without importing a client library, and CI can enforce the
//     metric naming conventions.
//   - Structured logs: log/slog constructors for the daemon's
//     -log-format/-log-level flags, plus a handler wrapper that stamps
//     every record with the context's trace ID.
//
// The package deliberately has no registry of live metric objects: the
// daemon's single source of truth is the service Snapshot struct. The
// JSON view marshals it; the Prometheus view renders it through the
// service package's family table, which declares each family's name,
// type, HELP, label keys and Snapshot fields once. Adding a metric takes
// a recording call, a Snapshot field and one family entry; a test fails
// on a field no entry claims, and cmd/metriclint lints the table.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// traceKey is the context key carrying the request trace ID.
type traceKey struct{}

// NewTraceID mints a 128-bit random trace ID as 32 hex characters.
func NewTraceID() string {
	var b [16]byte
	// crypto/rand.Read never fails on supported platforms (it aborts the
	// process instead); the error return exists for interface reasons.
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// WithTrace returns a context carrying the trace ID.
func WithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// Trace returns the context's trace ID, or "".
func Trace(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// ValidTraceID reports whether an externally supplied trace ID is safe
// to adopt: 8–64 characters of [A-Za-z0-9_-]. Anything else (empty,
// overlong, control characters, log-injection attempts) is rejected and
// a fresh ID is minted instead.
func ValidTraceID(id string) bool {
	if len(id) < 8 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
