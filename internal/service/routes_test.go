package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dom"
)

// routeRequest builds a request that matches rt's pattern, with every
// path wildcard filled in as "x".
func routeRequest(rt route) *http.Request {
	method, path, _ := strings.Cut(rt.pattern, " ")
	path = regexp.MustCompile(`\{[^}]*\}`).ReplaceAllString(path, "x")
	return httptest.NewRequest(method, path, nil)
}

// TestRouteTableLabelsAndDeadlines: every route's handler runs under the
// pprof "route" label naming it, and under the request deadline exactly
// when the route does not stream. A request that matches no route runs
// under no route label at all, so no path can mint a label value.
func TestRouteTableLabelsAndDeadlines(t *testing.T) {
	srv := NewServer(1, 1, nil)
	defer srv.Close()
	srv.RequestTimeout = time.Minute

	type seen struct {
		label             string
		labelled, timeout bool
	}
	got := make(map[string]seen)
	probe := func(key string) func(*Server, http.ResponseWriter, *http.Request) error {
		return func(_ *Server, w http.ResponseWriter, r *http.Request) error {
			label, ok := pprof.Label(r.Context(), "route")
			_, timeout := r.Context().Deadline()
			got[key] = seen{label, ok, timeout}
			return nil
		}
	}
	probed := make([]route, len(routes))
	for i, rt := range routes {
		rt.handle = probe(rt.pattern)
		probed[i] = rt
	}
	mux := srv.routeMux(probed)
	// A raw catch-all, outside the table, sees what an unmatched request
	// runs under.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		_ = probe("unmatched")(srv, w, r)
	})
	h := srv.instrument(mux)

	for _, rt := range routes {
		h.ServeHTTP(httptest.NewRecorder(), routeRequest(rt))
		s, ok := got[rt.pattern]
		if !ok {
			t.Errorf("%s: handler did not run", rt.pattern)
			continue
		}
		if !s.labelled || s.label != rt.name {
			t.Errorf("%s: route label %q (set %v), want %q", rt.pattern, s.label, s.labelled, rt.name)
		}
		if want := rt.flags&streams == 0; s.timeout != want {
			t.Errorf("%s: deadline present = %v, want %v", rt.pattern, s.timeout, want)
		}
	}

	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/repos/x/zzz", nil))
	if s, ok := got["unmatched"]; !ok || s.labelled {
		t.Errorf("unmatched /repos/x/zzz: ran %v, route label %q (set %v); want it to run unlabelled", ok, s.label, s.labelled)
	}
}

// TestRouteUnmatchedAndWrongMethod: the mux answers an unknown path with
// 404 and a known path with the wrong method with 405 and an Allow
// header; both still get a trace ID and a request log line, and neither
// is counted as traffic to any endpoint.
func TestRouteUnmatchedAndWrongMethod(t *testing.T) {
	srv := NewServer(1, 1, nil)
	defer srv.Close()
	var logs bytes.Buffer
	srv.Log = slog.New(slog.NewJSONHandler(&logs, nil))
	h := srv.Handler()

	for _, tc := range []struct {
		method, path string
		status       int
		allow        string
	}{
		{http.MethodGet, "/repos/x/zzz", http.StatusNotFound, ""},
		{http.MethodGet, "/extract", http.StatusMethodNotAllowed, "POST"},
		{http.MethodPut, "/repos", http.StatusMethodNotAllowed, "DELETE, GET, HEAD, POST"},
		{http.MethodPost, "/healthz", http.StatusMethodNotAllowed, "GET, HEAD"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != tc.status {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, rec.Code, tc.status)
		}
		if got := rec.Header().Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		if rec.Header().Get("X-Trace-Id") == "" {
			t.Errorf("%s %s: no X-Trace-Id", tc.method, tc.path)
		}
	}

	var logged []int
	sc := bufio.NewScanner(&logs)
	for sc.Scan() {
		var line struct {
			Msg    string `json:"msg"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Msg == "request" {
			logged = append(logged, line.Status)
		}
	}
	if want := []int{404, 405, 405, 405}; !slices.Equal(logged, want) {
		t.Errorf("request log statuses %v, want %v", logged, want)
	}
	if snap := srv.Metrics.Snapshot(); len(snap.Requests) != 0 {
		t.Errorf("requests counted %v, want none", snap.Requests)
	}
}

// TestRequestLogRepo: the request log's repo attribute is the decoded
// ?repo= value on every route — one whose handler parses the query
// (/extract, here refused with 404 before any extraction), one that
// reads only repo (/ingest), and one that never looks at the query
// (/healthz).
func TestRequestLogRepo(t *testing.T) {
	srv := NewServer(1, 1, nil)
	defer srv.Close()
	var logs bytes.Buffer
	srv.Log = slog.New(slog.NewJSONHandler(&logs, nil))
	h := srv.Handler()
	for _, tc := range []struct{ method, target, want string }{
		{http.MethodPost, "/extract?uri=u&repo=my%20repo%2Bx", "my repo+x"},
		{http.MethodPost, "/ingest?repo=a+b", "a b"},
		{http.MethodGet, "/healthz?x=1;y&repo=%zz&re%70o=caf%C3%A9&repo=second", "café"},
		{http.MethodGet, "/healthz?other=repo", ""},
	} {
		logs.Reset()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(tc.method, tc.target, strings.NewReader("<p>x</p>")))
		var line struct {
			Msg  string `json:"msg"`
			Repo string `json:"repo"`
		}
		sc := bufio.NewScanner(&logs)
		for sc.Scan() && line.Msg != "request" {
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatal(err)
			}
		}
		if line.Msg != "request" || line.Repo != tc.want {
			t.Errorf("%s %s: request log %+v, want repo %q", tc.method, tc.target, line, tc.want)
		}
	}
}

// panicRoute is a table entry whose handler panics with v.
func panicRoute(v any) route {
	return route{"GET /boom", "boom", 0, func(*Server, http.ResponseWriter, *http.Request) error { panic(v) }}
}

// TestHandlerPanicIsolated: a panicking handler answers 500 with a JSON
// error, is counted as a recovered handler panic, and the server keeps
// serving the next request.
func TestHandlerPanicIsolated(t *testing.T) {
	srv := NewServer(1, 1, nil)
	defer srv.Close()
	ts := httptest.NewServer(srv.instrument(srv.routeMux(append([]route{panicRoute("handler exploded")}, routes...))))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	var body struct{ Error string }
	decErr := json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panicking handler: status %d, want 500", resp.StatusCode)
	}
	if decErr != nil || !strings.Contains(body.Error, "handler exploded") {
		t.Errorf("panicking handler: error %q (%v), want the panic value", body.Error, decErr)
	}
	if n := srv.Metrics.Snapshot().PanicsRecovered["handler"]; n != 1 {
		t.Errorf("handler panics recovered = %d, want 1", n)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("request after the panic: status %d, want 200", resp.StatusCode)
	}
}

// TestHandlerPanicAbortPropagates: http.ErrAbortHandler is the stdlib's
// way to abort a response; the panic isolation must let it through
// uncounted.
func TestHandlerPanicAbortPropagates(t *testing.T) {
	srv := NewServer(1, 1, nil)
	defer srv.Close()
	h := srv.instrument(srv.routeMux([]route{panicRoute(http.ErrAbortHandler)}))
	defer func() {
		if v := recover(); v != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler", v)
		}
		if n := srv.Metrics.Snapshot().PanicsRecovered["handler"]; n != 0 {
			t.Errorf("handler panics recovered = %d, want 0", n)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/boom", nil))
	t.Fatal("ErrAbortHandler did not propagate")
}

// failingWriter is a ResponseWriter whose client went away: every Write
// fails. It records each status sent and each write attempted.
type failingWriter struct {
	header   http.Header
	statuses []int
	writes   []string
}

func (w *failingWriter) Header() http.Header { return w.header }

func (w *failingWriter) WriteHeader(code int) { w.statuses = append(w.statuses, code) }

func (w *failingWriter) Write(b []byte) (int, error) {
	if len(w.statuses) == 0 {
		w.WriteHeader(http.StatusOK)
	}
	w.writes = append(w.writes, string(b))
	return 0, errors.New("client went away")
}

// TestExtractWriteFailure: when the response write fails, /extract ends
// the exchange the same way for XML as for JSON — one status, the one
// body write, nothing appended, and no request error counted.
func TestExtractWriteFailure(t *testing.T) {
	cl, repo := buildMoviesRepo(t, 29, 12)
	srv := NewServer(1, 1, nil)
	defer srv.Close()
	if _, err := srv.LoadRepo("movies", repo); err != nil {
		t.Fatal(err)
	}
	page := dom.Render(cl.Pages[0].Doc)
	h := srv.Handler()
	for _, format := range []string{"json", "xml"} {
		w := &failingWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/extract?repo=movies&format="+format, strings.NewReader(page)))
		if len(w.statuses) != 1 || w.statuses[0] != http.StatusOK {
			t.Errorf("%s: statuses %v, want one 200", format, w.statuses)
		}
		if len(w.writes) != 1 || strings.Contains(w.writes[0], `"error"`) {
			t.Errorf("%s: writes %q, want the one result body", format, w.writes)
		}
	}
	snap := srv.Metrics.Snapshot()
	if snap.Requests["extract"] != 2 || snap.Errors["extract"] != 0 {
		t.Errorf("extract requests %d, errors %d; want 2 and 0",
			snap.Requests["extract"], snap.Errors["extract"])
	}
}
