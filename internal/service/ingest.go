package service

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// errorsAs is a local alias so handlers read without an import dance.
func errorsAs(err error, target any) bool { return err != nil && errors.As(err, target) }

// ingestSummary is the trailing NDJSON line of an /ingest response: run
// totals plus the run-level error, if any. Clients tell it apart from
// page results by the "done" marker.
type ingestSummary struct {
	Done bool `json:"done"`
	pipeline.Stats
	Error string `json:"error,omitempty"`
	// Trace echoes the request trace ID (also in the X-Trace-Id header
	// and on every result line) so a saved NDJSON stream still names the
	// exchange it came from.
	Trace string `json:"trace,omitempty"`
}

// handleIngest streams a whole site through the extraction pipeline:
// NDJSON {"uri","html"} pages in the request body, one NDJSON result per
// page in the response, a summary line last. Pages are auto-routed via
// the signature router unless ?repo= pins a repository.
//
// The handler runs full-duplex: results stream back while the request
// body is still being produced, through a bounded in-flight window — so
// a client can pipe an arbitrarily large crawl through without either
// side buffering the site, and a slow reader throttles the uploader.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	streamed, err := s.ingest(w, r)
	// A failed run counts as an ingest error even though the HTTP status
	// is long gone once the stream started — operators watch the
	// /metrics error counters, not just response codes.
	s.Metrics.Request("ingest", err != nil)
	if err != nil && !streamed {
		status := http.StatusInternalServerError
		if he, ok := err.(*httpError); ok {
			status = he.status
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
	}
}

// ingest runs the streaming exchange; streamed reports whether response
// bytes were already written (after which errors travel on the summary
// line, not the status).
func (s *Server) ingest(w http.ResponseWriter, r *http.Request) (streamed bool, err error) {
	classify, err := s.requestClassifier(r)
	if err != nil {
		return false, err
	}
	// Interleave request-body reads with response writes (HTTP/1.1
	// servers otherwise discard the remaining body once the response
	// starts). On transports without support (HTTP/2 always
	// interleaves) this is a no-op.
	_ = http.NewResponseController(w).EnableFullDuplex()

	// /ingest is exempt from the per-request deadline (instrument) and
	// from the http.Server read/write timeouts (main.go carve-out): the
	// stream lives as long as the site does. Clear any connection
	// deadlines the listener config set so a long migration isn't cut
	// off mid-stream; each page's extraction is still individually
	// bounded by RequestTimeout inside the extractor.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Time{})
	_ = rc.SetWriteDeadline(time.Time{})

	// Lines are bounded like /extract bodies; the stream itself is
	// unbounded — that is the point.
	src := pipeline.NewNDJSONSource(r.Body, int(s.maxBody()), s.pageParser())

	w.Header().Set("Content-Type", "application/x-ndjson")
	// One connection per ingest exchange. A site migration is a
	// long-lived stream with nothing to reuse afterwards — and on
	// HTTP/1.1, reusing a connection after a full-duplex exchange
	// that did not consume its body to EOF races the server's
	// background-read accounting (the post-handler body drain fires
	// the deferred background read after abortPendingRead already
	// ran, panicking the next read on the connection).
	w.Header().Set("Connection", "close")
	trace := obs.Trace(r.Context())
	sink := pipeline.NewNDJSONSink(w)
	sink.Trace = trace

	start := time.Now()
	stats, runErr := pipeline.Run(r.Context(), pipeline.Config{
		Workers:    s.Pool.Workers(),
		Classifier: classify,
		Extractor:  extractor{s},
		Telemetry:  s.Metrics.Pipeline,
		OnPanic:    s.pipelinePanic,
	}, src, sink)

	// The response status is long gone; a run-level failure travels
	// on the summary line instead.
	sum := ingestSummary{Done: true, Stats: stats, Trace: trace}
	if runErr != nil {
		sum.Error = runErr.Error()
	}
	_ = json.NewEncoder(w).Encode(sum)
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}

	level := slog.LevelInfo
	if runErr != nil {
		level = slog.LevelError
	}
	s.logger().LogAttrs(r.Context(), level, "ingest.done",
		slog.Int("pages", stats.Pages), slog.Int("extracted", stats.Extracted),
		slog.Int("unrouted", stats.Unrouted), slog.Int("pageErrors", stats.PageErrors),
		slog.Duration("duration", time.Since(start)),
		slog.String("error", sum.Error))
	return true, runErr
}
