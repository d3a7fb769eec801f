package pipeline

import (
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/textutil"
)

// The NDJSON wire codec: page lines in, result lines out, without the
// reflection walk of encoding/json on the per-page path. Both directions
// are exact: the decoder yields the value (or the error) json.Unmarshal
// would, and the encoder writes the bytes json.Encoder would — the
// differential fuzz tests pin both against encoding/json.

// pageLineDecoder decodes NDJSON page lines. The canonical form
// {"uri":"…","html":"…"} (either key order, JSON whitespace between
// tokens) decodes in one pass with one allocation per string; anything
// else — unknown, repeated or differently-cased keys, null or non-string
// values, surrogate escapes, invalid UTF-8, malformed JSON — is handed
// to json.Unmarshal, so values and error text stay encoding/json's.
type pageLineDecoder struct {
	r textutil.JSONReader
}

// maxRetainedScratch caps the per-line buffers kept between lines (the
// decoder's unescape scratch, NDJSONSink's line buffer, whatever its
// appender), so one huge page does not pin its buffer for the rest of
// the stream.
const maxRetainedScratch = 1 << 20

// decode fills *out from one trimmed, non-empty line.
func (d *pageLineDecoder) decode(line []byte, out *PageLine) error {
	ok := d.decodeCanonical(line, out)
	if cap(d.r.Scratch) > maxRetainedScratch {
		d.r.Scratch = nil
	}
	if ok {
		return nil
	}
	*out = PageLine{}
	return json.Unmarshal(line, out)
}

// decodeCanonical reports whether line is in the canonical form, filling
// *out when it is.
func (d *pageLineDecoder) decodeCanonical(line []byte, out *PageLine) bool {
	r := &d.r
	r.Reset(line)
	r.Byte('{')
	var seenURI, seenHTML bool
	for r.OK() {
		switch {
		case !seenURI && r.IsKey("uri"):
			out.URI, seenURI = r.String(), true
		case !seenHTML && r.IsKey("html"):
			out.HTML, seenHTML = r.String(), true
		default:
			return false
		}
		if !r.Next('}') {
			break
		}
	}
	r.End()
	return r.OK()
}

// AppendResultLine appends the NDJSON result line of one item — exactly
// the bytes json.Encoder.Encode writes for MakeResultLine(it) with Trace
// set to trace, trailing newline included — without building the line
// struct or the record's map tree. encoding/json refuses a NaN or ±Inf
// score; so does AppendResultLine, with encoding/json's error and
// nothing appended.
func AppendResultLine(dst []byte, it *Item, trace string) ([]byte, error) {
	if math.IsNaN(it.Score) || math.IsInf(it.Score, 0) {
		_, err := json.Marshal(it.Score)
		return dst, err
	}
	uri := ""
	if it.Page != nil {
		uri = it.Page.URI
	}
	dst = append(dst, `{"uri":`...)
	dst = textutil.AppendJSONString(dst, uri)
	if it.Repo != "" {
		dst = append(dst, `,"repo":`...)
		dst = textutil.AppendJSONString(dst, it.Repo)
	}
	if it.Score != 0 {
		dst = append(dst, `,"score":`...)
		dst = appendJSONFloat(dst, it.Score)
	}
	if it.Err != nil {
		if msg := it.Err.Error(); msg != "" {
			dst = append(dst, `,"error":`...)
			dst = textutil.AppendJSONString(dst, msg)
		}
	} else {
		if it.Element != nil {
			dst = append(dst, `,"record":`...)
			dst = it.Element.AppendJSON(dst)
		}
		if len(it.Failures) > 0 {
			dst = append(dst, `,"failures":[`...)
			for i, f := range it.Failures {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = textutil.AppendJSONString(dst, f.String())
			}
			dst = append(dst, ']')
		}
	}
	if trace != "" {
		dst = append(dst, `,"trace":`...)
		dst = textutil.AppendJSONString(dst, trace)
	}
	return append(dst, "}\n"...), nil
}

// appendJSONFloat formats a finite float64 as encoding/json does: the
// shortest representation, in exponent form only below 1e-6 or from 1e21
// on, with a single-digit negative exponent unpadded (1e-7, not 1e-07).
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := f
	if abs < 0 {
		abs = -abs
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
