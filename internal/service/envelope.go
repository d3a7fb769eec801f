package service

import (
	"errors"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/extract"
	"repro/internal/pipeline"
	"repro/internal/textutil"
)

// The extraction envelope, {"uri","repo","generation","record","failures"},
// is appended straight into byte buffers: the record by
// Element.AppendJSON, strings by extract.AppendJSONString. The bytes are
// those encoding/json writes for the same envelope, indented two spaces
// per level on /extract and one compact line per page on /extract/batch;
// the differential tests in envelope_test.go hold them to it.

// appendExtractResult appends the compact JSON envelope of one extracted
// page; failures are omitted when there are none.
func appendExtractResult(dst []byte, uri, repo string, generation int, el *extract.Element, fails []extract.Failure) []byte {
	dst = append(dst, `{"uri":`...)
	dst = textutil.AppendJSONString(dst, uri)
	dst = append(dst, `,"repo":`...)
	dst = textutil.AppendJSONString(dst, repo)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendInt(dst, int64(generation), 10)
	dst = append(dst, `,"record":`...)
	dst = el.AppendJSON(dst)
	if len(fails) > 0 {
		dst = append(dst, `,"failures":[`...)
		for i, f := range fails {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = textutil.AppendJSONString(dst, f.String())
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendErrorObject appends {"error":msg}.
func appendErrorObject(dst []byte, msg string) []byte {
	dst = append(dst, `{"error":`...)
	dst = textutil.AppendJSONString(dst, msg)
	return append(dst, '}')
}

// appendBatchLine appends one /extract/batch result, without its newline:
// an undecodable input line reports its error alone, a failed page its
// error and URI, and an extracted page the envelope with the generation
// now serving its repository.
func (s *Server) appendBatchLine(dst []byte, it *pipeline.Item) []byte {
	var pe *pipeline.PageError
	switch {
	case errors.As(it.Err, &pe) && pe.Line > 0:
		return appendErrorObject(dst, pe.Error())
	case it.Err != nil:
		// encoding/json sorts map keys: "error" before "uri".
		dst = append(dst, `{"error":`...)
		dst = textutil.AppendJSONString(dst, it.Err.Error())
		dst = append(dst, `,"uri":`...)
		dst = textutil.AppendJSONString(dst, it.Page.URI)
		return append(dst, '}')
	}
	gen := 0
	if e, ok := s.Registry.Get(it.Repo); ok {
		gen = e.Generation
	}
	return appendExtractResult(dst, it.Page.URI, it.Repo, gen, it.Element, it.Failures)
}

// envelopeBuf holds the two buffers of one /extract response: the compact
// envelope and its indented rendering.
type envelopeBuf struct{ compact, body []byte }

// render returns the /extract response body: the envelope indented two
// spaces per level, then a newline. The result aliases b.body.
func (b *envelopeBuf) render(uri, repo string, generation int, el *extract.Element, fails []extract.Failure) []byte {
	b.compact = appendExtractResult(b.compact[:0], uri, repo, generation, el, fails)
	b.body = append(extract.AppendIndented(b.body[:0], b.compact), '\n')
	return b.body
}

// envelopePool recycles envelope buffers, so a warm /extract response is
// built without allocating.
var envelopePool = sync.Pool{New: func() any { return new(envelopeBuf) }}

// writeResult renders one extraction as JSON (default) or, for
// format "xml", the paper's XML. A failed write means the client went
// away mid-response; the status is already out, so there is nothing left
// to report to it, and the extraction itself succeeded.
func writeResult(w http.ResponseWriter, format string, e *RepoEntry, uri string, el *extract.Element, fails []extract.Failure) {
	if format == "xml" {
		w.Header().Set("Content-Type", "application/xml")
		_ = el.WriteXML(w)
		return
	}
	b := envelopePool.Get().(*envelopeBuf)
	body := b.render(uri, e.Name, e.Generation, el, fails)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	// Don't let one huge page response pin giant buffers in the pool.
	if cap(b.body) <= 1<<20 {
		envelopePool.Put(b)
	}
}
