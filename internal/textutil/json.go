package textutil

import (
	"unicode/utf8"
)

// The JSON wire primitives behind every direct codec in the repository:
// one string escaper for the encoders and one reader for the decoders.
// Both cover exactly what encoding/json does on their subset, so a codec
// built on them can promise encoding/json's bytes on the way out and,
// by handing anything the reader refuses to json.Unmarshal, its values
// and error text on the way in.

// AppendJSONString appends s as a JSON string literal exactly as
// encoding/json writes it by default: the HTML-sensitive <, > and &
// escaped, U+2028 and U+2029 escaped, and each invalid UTF-8 byte
// replaced by an escaped U+FFFD.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = AppendJSONStringBody(dst, s)
	return append(dst, '"')
}

// AppendJSONStringBody is AppendJSONString without the quotes, for a
// caller that writes a literal of its own around the escaped text.
func AppendJSONStringBody(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if jsonSafe[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// jsonSafe marks the bytes AppendJSONString copies through verbatim:
// printable ASCII except the quote, the backslash and the HTML-sensitive
// <, > and &. Bytes ≥ 0x80 are unmarked and decoded as UTF-8.
var jsonSafe = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// JSONReader reads the canonical subset of JSON a direct decoder
// accepts, one token at a time, with JSON whitespace allowed between
// tokens. Failure is sticky: the first token outside the subset clears
// OK and turns every later call into a no-op, so a decoder reads its
// whole shape straight through and checks OK once. What fails: control
// bytes, invalid UTF-8 or surrogate escapes in strings, numbers that are
// not integers of type int, nesting deeper than encoding/json allows,
// malformed JSON. A decoder then hands its whole input to
// encoding/json, which decides the value or the error.
type JSONReader struct {
	data []byte
	pos  int
	bad  bool
	// Scratch receives the unescaped bytes of strings carrying escapes;
	// a caller decoding many inputs keeps it across Resets.
	Scratch []byte
}

// Reset starts reading data from its first byte.
func (r *JSONReader) Reset(data []byte) {
	r.data, r.pos, r.bad = data, 0, false
}

// OK reports whether everything read so far was in the subset.
func (r *JSONReader) OK() bool { return !r.bad }

// Fail marks the input as outside the subset.
func (r *JSONReader) Fail() { r.bad = true }

// Pos is the offset of the next unread byte.
func (r *JSONReader) Pos() int { return r.pos }

// Peek skips whitespace and returns the next byte, or 0 at the end of
// the input or after a failure.
func (r *JSONReader) Peek() byte {
	r.space()
	if r.bad || r.pos == len(r.data) {
		return 0
	}
	return r.data[r.pos]
}

func (r *JSONReader) space() {
	for r.pos < len(r.data) && isJSONSpace(r.data[r.pos]) {
		r.pos++
	}
}

// Byte reads the structural byte c.
func (r *JSONReader) Byte(c byte) {
	if r.Peek() != c || c == 0 {
		r.bad = true
		return
	}
	r.pos++
}

// IsKey reads the object key name and its colon if they come next,
// reporting whether they did; otherwise it reads nothing. Only the
// key's literal spelling matches: no escapes, no other case.
func (r *JSONReader) IsKey(name string) bool {
	if r.Peek() != '"' {
		return false
	}
	rest := r.data[r.pos+1:]
	if len(rest) <= len(name) || string(rest[:len(name)]) != name || rest[len(name)] != '"' {
		return false
	}
	save := r.pos
	r.pos += len(name) + 2
	if r.Peek() != ':' {
		r.pos = save
		return false
	}
	r.pos++
	return true
}

// Key reads the object key name and its colon, which must come next.
func (r *JSONReader) Key(name string) {
	if !r.bad && !r.IsKey(name) {
		r.bad = true
	}
}

// Next reads what follows an object member or array element: true after
// a comma, false after the closing byte close or a failure.
func (r *JSONReader) Next(close byte) bool {
	switch r.Peek() {
	case ',':
		r.pos++
		return true
	case close:
		if close != 0 {
			r.pos++
			return false
		}
	}
	r.bad = true
	return false
}

// End reads trailing whitespace, which must run to the end of the input.
func (r *JSONReader) End() {
	if r.space(); r.pos != len(r.data) {
		r.bad = true
	}
}

// Tail returns the rest of the input up to its final byte, which must be
// close, with the whitespace around it trimmed, and reads to the end:
// the raw value of an object's last member, say, for the caller to
// decode and check in a pass of its own. It fails when the input does
// not end in close or the rest is empty.
func (r *JSONReader) Tail(close byte) []byte {
	r.space()
	end := len(r.data) - 1
	for end >= r.pos && isJSONSpace(r.data[end]) {
		end--
	}
	if r.bad || end <= r.pos || r.data[end] != close {
		r.bad = true
		return nil
	}
	rest := r.data[r.pos:end]
	for isJSONSpace(rest[len(rest)-1]) {
		rest = rest[:len(rest)-1]
	}
	r.pos = len(r.data)
	return rest
}

func isJSONSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// Bool reads true or false.
func (r *JSONReader) Bool() bool {
	switch r.Peek() {
	case 't':
		return r.literal("true")
	case 'f':
		r.literal("false")
		return false
	}
	r.bad = true
	return false
}

func (r *JSONReader) literal(lit string) bool {
	if len(r.data)-r.pos < len(lit) || string(r.data[r.pos:r.pos+len(lit)]) != lit {
		r.bad = true
		return false
	}
	r.pos += len(lit)
	return r.delimited()
}

// delimited fails a scalar followed by a byte that would make a real
// JSON scanner read it differently (1.5, 1e3, 12a, truex).
func (r *JSONReader) delimited() bool {
	if r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r', ',', '}', ']', ':':
		default:
			r.bad = true
			return false
		}
	}
	return true
}

// maxIntDigits keeps Int's accumulator clear of int64 overflow.
const maxIntDigits = 18

// Int reads an integer literal without fraction or exponent whose value
// fits an int.
func (r *JSONReader) Int() int {
	if r.Peek() == 0 {
		r.bad = true
		return 0
	}
	i, neg := r.pos, false
	if r.data[i] == '-' {
		neg = true
		i++
	}
	start := i
	var v int64
	for i < len(r.data) && r.data[i] >= '0' && r.data[i] <= '9' {
		v = v*10 + int64(r.data[i]-'0')
		i++
	}
	digits := i - start
	if digits == 0 || digits > maxIntDigits || digits > 1 && r.data[start] == '0' {
		r.bad = true
		return 0
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		r.bad = true
		return 0
	}
	r.pos = i
	if !r.delimited() {
		return 0
	}
	return int(v)
}

// String reads a string literal and returns its value.
func (r *JSONReader) String() string {
	if r.Peek() != '"' {
		r.bad = true
		return ""
	}
	data := r.data
	start := r.pos + 1
	j, ascii := scanJSONPlain(data, start)
	if j < len(data) && data[j] == '"' {
		if !ascii && !utf8.Valid(data[start:j]) {
			r.bad = true
			return ""
		}
		r.pos = j + 1
		return string(data[start:j])
	}
	return r.unescape(start, j, ascii)
}

// unescape reads the rest of the string literal opened at data[start-1]
// from its first escape (or control byte) at data[j], writing the value
// by index into Scratch. An escape never decodes to more bytes than it
// spells, so Scratch is sized once, to the rest of the input.
func (r *JSONReader) unescape(start, j int, ascii bool) string {
	data := r.data
	if cap(r.Scratch) < len(data)-start {
		r.Scratch = make([]byte, len(data)-start)
	}
	buf := r.Scratch[:cap(r.Scratch)]
	w := copy(buf, data[start:j])
	for j < len(data) {
		c := data[j]
		if jsonPlain[c] || c >= utf8.RuneSelf {
			ascii = ascii && c < utf8.RuneSelf
			buf[w] = c
			w, j = w+1, j+1
			continue
		}
		if c == '"' {
			if !ascii && !utf8.Valid(buf[:w]) {
				break
			}
			r.pos = j + 1
			return string(buf[:w])
		}
		if c != '\\' || j+1 == len(data) {
			break
		}
		switch e := data[j+1]; e {
		case '"', '\\', '/':
			buf[w] = e
		case 'b':
			buf[w] = '\b'
		case 'f':
			buf[w] = '\f'
		case 'n':
			buf[w] = '\n'
		case 'r':
			buf[w] = '\r'
		case 't':
			buf[w] = '\t'
		case 'u':
			u, ok := hex4(data, j+2)
			if !ok || u >= 0xD800 && u < 0xE000 {
				r.bad = true
				return ""
			}
			if u < utf8.RuneSelf {
				buf[w] = byte(u)
				w++
			} else {
				w += utf8.EncodeRune(buf[w:], u)
			}
			j += 6
			continue
		default:
			r.bad = true
			return ""
		}
		w, j = w+1, j+2
	}
	r.bad = true
	return ""
}

// maxSkipDepth is encoding/json's nesting limit on arrays and objects:
// anything deeper is its error to report.
const maxSkipDepth = 10000

// Skip reads one value of any JSON type without decoding it, checking
// its syntax: strings may hold any escape and any bytes but control
// bytes, and numbers may have fractions and exponents.
func (r *JSONReader) Skip() {
	r.skip(0)
}

// skip reads a value inside depth enclosing arrays and objects.
func (r *JSONReader) skip(depth int) {
	c := r.Peek()
	if (c == '{' || c == '[') && depth == maxSkipDepth {
		r.bad = true
		return
	}
	switch {
	case c == '{':
		r.pos++
		if r.Peek() == '}' {
			r.pos++
			return
		}
		for {
			r.skipString()
			r.Byte(':')
			r.skip(depth + 1)
			if !r.Next('}') {
				return
			}
		}
	case c == '[':
		r.pos++
		if r.Peek() == ']' {
			r.pos++
			return
		}
		for {
			r.skip(depth + 1)
			if !r.Next(']') {
				return
			}
		}
	case c == '"':
		r.skipString()
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		r.skipNumber()
	default:
		r.bad = true
	}
}

func (r *JSONReader) skipString() {
	if r.Peek() != '"' {
		r.bad = true
		return
	}
	data := r.data
	for j := r.pos + 1; ; {
		j, _ = scanJSONPlain(data, j)
		switch {
		case j == len(data) || data[j] < 0x20:
			r.bad = true
			return
		case data[j] == '"':
			r.pos = j + 1
			return
		}
		// A backslash.
		if j+1 == len(data) {
			r.bad = true
			return
		}
		switch data[j+1] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			j += 2
		case 'u':
			if _, ok := hex4(data, j+2); !ok {
				r.bad = true
				return
			}
			j += 6
		default:
			r.bad = true
			return
		}
	}
}

// skipNumber reads -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (r *JSONReader) skipNumber() {
	data, i := r.data, r.pos
	digits := func() int {
		n := 0
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
			n++
		}
		return n
	}
	if data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case digits() == 0:
		r.bad = true
		return
	}
	if i < len(data) && data[i] == '.' {
		i++
		if digits() == 0 {
			r.bad = true
			return
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if digits() == 0 {
			r.bad = true
			return
		}
	}
	r.pos = i
	r.delimited()
}

// scanJSONPlain returns the end of the run of bytes from data[i] that a
// JSON string carries verbatim — everything but the quote, the backslash
// and control bytes — and whether that run was pure ASCII.
func scanJSONPlain(data []byte, i int) (end int, ascii bool) {
	ascii = true
	for ; i < len(data); i++ {
		c := data[i]
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

// hexDigit maps a hex digit to its value and any other byte to 1<<16,
// so the four digits of a \u escape combine, shifted and or-ed, into a
// value above 0xFFFF exactly when one of them is not a hex digit.
var hexDigit = func() (t [256]uint32) {
	for i := range t {
		t[i] = 1 << 16
	}
	for i := range 16 {
		t["0123456789abcdef"[i]] = uint32(i)
		t["0123456789ABCDEF"[i]] = uint32(i)
	}
	return t
}()

// hex4 parses the four hex digits of a \u escape at data[i:].
func hex4(data []byte, i int) (rune, bool) {
	if i+4 > len(data) {
		return 0, false
	}
	d := data[i : i+4]
	u := hexDigit[d[0]]<<12 | hexDigit[d[1]]<<8 | hexDigit[d[2]]<<4 | hexDigit[d[3]]
	return rune(u), u <= 0xFFFF
}
