package pipeline

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/extract"
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
	// scratch receives the unescaped bytes of strings carrying escapes.
	scratch []byte
}

// maxRetainedScratch caps the per-line buffers kept between lines (the
// decoder's unescape scratch, NDJSONSink's line buffer, whatever its
// appender), so one huge page does not pin its buffer for the rest of
// the stream.
const maxRetainedScratch = 1 << 20

// decode fills *out from one trimmed, non-empty line.
func (d *pageLineDecoder) decode(line []byte, out *PageLine) error {
	ok := d.decodeCanonical(line, out)
	if cap(d.scratch) > maxRetainedScratch {
		d.scratch = nil
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
	i := skipJSONSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return false
	}
	var seenURI, seenHTML bool
	for {
		i = skipJSONSpace(line, i+1)
		var dst *string
		switch rest := line[i:]; {
		case !seenURI && bytes.HasPrefix(rest, []byte(`"uri"`)):
			dst, seenURI, i = &out.URI, true, i+len(`"uri"`)
		case !seenHTML && bytes.HasPrefix(rest, []byte(`"html"`)):
			dst, seenHTML, i = &out.HTML, true, i+len(`"html"`)
		default:
			return false
		}
		i = skipJSONSpace(line, i)
		if i == len(line) || line[i] != ':' {
			return false
		}
		var ok bool
		if *dst, i, ok = d.decodeString(line, skipJSONSpace(line, i+1)); !ok {
			return false
		}
		i = skipJSONSpace(line, i)
		if i == len(line) {
			return false
		}
		switch line[i] {
		case ',':
		case '}':
			return skipJSONSpace(line, i+1) == len(line)
		default:
			return false
		}
	}
}

// decodeString decodes the JSON string starting at line[i], returning it
// and the index just past its closing quote. ok is false for anything
// the canonical form excludes (control bytes, invalid UTF-8, surrogate or
// unknown escapes, an unterminated string).
func (d *pageLineDecoder) decodeString(line []byte, i int) (s string, next int, ok bool) {
	if i == len(line) || line[i] != '"' {
		return "", 0, false
	}
	start := i + 1
	j, ascii := scanJSONPlain(line, start)
	if j < len(line) && line[j] == '"' {
		if !ascii && !utf8.Valid(line[start:j]) {
			return "", 0, false
		}
		return string(line[start:j]), j + 1, true
	}
	buf := append(d.scratch[:0], line[start:j]...)
	for j < len(line) && line[j] == '\\' {
		if j+1 == len(line) {
			return "", 0, false
		}
		switch c := line[j+1]; c {
		case '"', '\\', '/':
			buf = append(buf, c)
		case 'b':
			buf = append(buf, '\b')
		case 'f':
			buf = append(buf, '\f')
		case 'n':
			buf = append(buf, '\n')
		case 'r':
			buf = append(buf, '\r')
		case 't':
			buf = append(buf, '\t')
		case 'u':
			r, ok := hex4(line, j+2)
			if !ok || r >= 0xD800 && r < 0xE000 {
				return "", 0, false
			}
			buf = utf8.AppendRune(buf, r)
			j += 4
		default:
			return "", 0, false
		}
		j += 2
		k, plain := scanJSONPlain(line, j)
		ascii = ascii && plain
		buf = append(buf, line[j:k]...)
		j = k
	}
	d.scratch = buf
	if j == len(line) || line[j] != '"' || !ascii && !utf8.Valid(buf) {
		return "", 0, false
	}
	return string(buf), j + 1, true
}

// scanJSONPlain returns the end of the run of bytes from line[i] that a
// JSON string carries verbatim — everything but the quote, the backslash
// and control bytes — and whether that run was pure ASCII.
func scanJSONPlain(line []byte, i int) (end int, ascii bool) {
	ascii = true
	for ; i < len(line); i++ {
		c := line[i]
		if jsonPlain[c] {
			continue
		}
		if c < utf8.RuneSelf {
			break
		}
		ascii = false
	}
	return i, ascii
}

// jsonPlain marks printable ASCII other than the quote and the backslash.
var jsonPlain = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// hex4 parses the four hex digits of a \u escape at line[i:].
func hex4(line []byte, i int) (rune, bool) {
	if i+4 > len(line) {
		return 0, false
	}
	var r rune
	for _, c := range line[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

func skipJSONSpace(line []byte, i int) int {
	for i < len(line) {
		switch line[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
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
	dst = extract.AppendJSONString(dst, uri)
	if it.Repo != "" {
		dst = append(dst, `,"repo":`...)
		dst = extract.AppendJSONString(dst, it.Repo)
	}
	if it.Score != 0 {
		dst = append(dst, `,"score":`...)
		dst = appendJSONFloat(dst, it.Score)
	}
	if it.Err != nil {
		if msg := it.Err.Error(); msg != "" {
			dst = append(dst, `,"error":`...)
			dst = extract.AppendJSONString(dst, msg)
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
				dst = extract.AppendJSONString(dst, f.String())
			}
			dst = append(dst, ']')
		}
	}
	if trace != "" {
		dst = append(dst, `,"trace":`...)
		dst = extract.AppendJSONString(dst, trace)
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
