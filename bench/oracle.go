package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/extract"
)

// Markers stand in for the parts of an expected output that differ per
// request. Each survives JSON encoding, %q quoting and query escaping
// unchanged, so one marker form covers every place the service echoes
// it.
const (
	uriMarker   = "@URI@"
	traceMarker = "@TRACE@"
	// scoreMarker is encoding/json's rendering of scoreValue.
	scoreMarker = "0.123456789"
	scoreValue  = 0.123456789
)

type partKind uint8

const (
	litPart   partKind = iota // bytes that must match exactly
	uriPart                   // the request's URI: prefix, id, suffix
	scorePart                 // a routing score in [threshold, 1]
	tracePart                 // a 32-hex-digit trace ID
)

type part struct {
	kind partKind
	lit  []byte
}

// expectation is a reference output with its per-request parts cut out.
// Matching is one pass over the output with no decoding, so checking a
// result costs the client O(1) per page.
type expectation []part

// compileExpectation cuts the markers out of a reference output.
func compileExpectation(ref []byte) expectation {
	markers := []struct {
		text string
		kind partKind
	}{{uriMarker, uriPart}, {traceMarker, tracePart}, {scoreMarker, scorePart}}
	var e expectation
	for len(ref) > 0 {
		at, which := len(ref), -1
		for i, m := range markers {
			if j := bytes.Index(ref, []byte(m.text)); j >= 0 && j < at {
				at, which = j, i
			}
		}
		if at > 0 {
			e = append(e, part{kind: litPart, lit: append([]byte(nil), ref[:at]...)})
		}
		if which < 0 {
			break
		}
		e = append(e, part{kind: markers[which].kind})
		ref = ref[at+len(markers[which].text):]
	}
	return e
}

// match reports whether got is the reference output for the request
// whose URI is uriPre + id + uriSuf.
func (e expectation) match(got []byte, uriPre, uriSuf string, id int64) bool {
	var digits [20]byte
	for _, p := range e {
		switch p.kind {
		case litPart:
			if !bytes.HasPrefix(got, p.lit) {
				return false
			}
			got = got[len(p.lit):]
		case uriPart:
			if !hasStringPrefix(got, uriPre) {
				return false
			}
			got = got[len(uriPre):]
			d := strconv.AppendInt(digits[:0], id, 10)
			if !bytes.HasPrefix(got, d) {
				return false
			}
			got = got[len(d):]
			if !hasStringPrefix(got, uriSuf) {
				return false
			}
			got = got[len(uriSuf):]
		case scorePart:
			n := 0
			for n < len(got) && (got[n] >= '0' && got[n] <= '9' || got[n] == '.' || got[n] == 'e' || got[n] == '-' || got[n] == '+') {
				n++
			}
			v, err := strconv.ParseFloat(string(got[:n]), 64)
			if err != nil || v < cluster.DefaultRouteThreshold || v > 1 {
				return false
			}
			got = got[n:]
		case tracePart:
			if len(got) < 32 {
				return false
			}
			for _, c := range got[:32] {
				if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
					return false
				}
			}
			got = got[32:]
		}
	}
	return len(got) == 0
}

func hasStringPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// extractResult mirrors the JSON envelope POST /extract answers with.
type extractResult struct {
	URI        string   `json:"uri"`
	Repo       string   `json:"repo"`
	Generation int      `json:"generation"`
	Record     any      `json:"record"`
	Failures   []string `json:"failures,omitempty"`
}

// encodeJSON renders v the way the service does: encoding/json with
// HTML escaping, a trailing newline and, for /extract, two-space indent.
func encodeJSON(v any, indent bool) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		panic(fmt.Sprintf("encoding reference output: %v", err))
	}
	return buf.Bytes()
}

func failureStrings(fails []extract.Failure) []string {
	var out []string
	for _, f := range fails {
		out = append(out, f.String())
	}
	return out
}

// unroutedMessage is the error text the service reports for a page no
// signature claims (see service.routePage).
func unroutedMessage(uri string, route cluster.Route) string {
	if route.Name == "" {
		return fmt.Sprintf("unrouted: page %q matched no repository signature", uri)
	}
	return fmt.Sprintf("unrouted: page %q best match %q at %.2f is below the routing threshold",
		uri, route.Name, route.Score)
}
