package service

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

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
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) error {
	return s.ingest(w, r, pipeline.AppendResultLine)
}

// ingest serves one /ingest exchange whose result lines appendLine
// renders. A failed run counts as an ingest error even though the HTTP
// status is long gone once the stream started — operators watch the
// /metrics error counters, not just response codes.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request,
	appendLine func(dst []byte, it *pipeline.Item, trace string) ([]byte, error)) error {
	classify, err := s.requestClassifier(r)
	if err != nil {
		return err
	}
	// Interleave body reads with response writes: HTTP/1.1 servers
	// otherwise discard the rest of the body once the response
	// starts (a no-op where unsupported; HTTP/2 always interleaves).
	// The route streams, so it is exempt from the request deadline
	// and the http.Server timeouts (main.go carve-out): clear any
	// connection deadlines the listener set — the stream lives as
	// long as the site does, and RequestTimeout bounds each page's
	// extraction inside the extractor instead.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	_ = rc.SetReadDeadline(time.Time{})
	_ = rc.SetWriteDeadline(time.Time{})
	// One connection per ingest exchange: a migration leaves nothing
	// to reuse, and on HTTP/1.1 reusing a connection after a
	// full-duplex exchange that did not read its body to EOF races
	// the server's background-read accounting (the post-handler
	// drain fires the deferred background read after
	// abortPendingRead ran, panicking the next read).
	w.Header().Set("Connection", "close")
	trace := obs.Trace(r.Context())
	start := time.Now()
	return s.streamNDJSON(w, r, classify, r.Body,
		func(dst []byte, it *pipeline.Item) ([]byte, error) {
			return appendLine(dst, it, trace)
		},
		func(stats pipeline.Stats, _ bool, runErr error) []byte {
			// The summary line always closes the stream: a run-level
			// failure travels on it, not on the status.
			sum := ingestSummary{Done: true, Stats: stats, Trace: trace}
			level := slog.LevelInfo
			if runErr != nil {
				sum.Error = runErr.Error()
				level = slog.LevelError
			}
			s.logger().LogAttrs(r.Context(), level, "ingest.done",
				slog.Int("pages", stats.Pages), slog.Int("extracted", stats.Extracted),
				slog.Int("unrouted", stats.Unrouted), slog.Int("pageErrors", stats.PageErrors),
				slog.Duration("duration", time.Since(start)),
				slog.String("error", sum.Error))
			// Ints, strings and a map of ints: Marshal cannot fail.
			line, _ := json.Marshal(sum)
			return append(line, '\n')
		})
}
