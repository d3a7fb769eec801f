package dom

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// namedEntities covers the named character references that occur in
// real-world data-intensive pages (the full HTML5 table has >2000 entries;
// this subset matches what the synthetic corpus and common sites emit).
// Unknown references are passed through verbatim, which is what tolerant
// browsers do for unterminated or unrecognized entities in text.
var namedEntities = map[string]rune{
	"amp":    '&',
	"lt":     '<',
	"gt":     '>',
	"quot":   '"',
	"apos":   '\'',
	"nbsp":   ' ',
	"copy":   '©',
	"reg":    '®',
	"trade":  '™',
	"hellip": '…',
	"mdash":  '—',
	"ndash":  '–',
	"lsquo":  '‘',
	"rsquo":  '’',
	"ldquo":  '“',
	"rdquo":  '”',
	"laquo":  '«',
	"raquo":  '»',
	"deg":    '°',
	"plusmn": '±',
	"frac12": '½',
	"frac14": '¼',
	"times":  '×',
	"divide": '÷',
	"eacute": 'é',
	"egrave": 'è',
	"agrave": 'à',
	"ccedil": 'ç',
	"ouml":   'ö',
	"uuml":   'ü',
	"auml":   'ä',
	"euro":   '€',
	"pound":  '£',
	"yen":    '¥',
	"cent":   '¢',
	"sect":   '§',
	"para":   '¶',
	"middot": '·',
	"bull":   '•',
	"dagger": '†',
	"larr":   '←',
	"rarr":   '→',
	"uarr":   '↑',
	"darr":   '↓',
	"star":   '☆',
	"starf":  '★',
}

// UnescapeEntities decodes HTML character references (&amp;, &#65;,
// &#x41;) in s. Malformed references are left untouched, matching browser
// behaviour for bare ampersands.
func UnescapeEntities(s string) string {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	b.WriteString(s[:amp])
	i := amp
	for i < len(s) {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		r, width, ok := decodeEntity(s[i:])
		if !ok {
			b.WriteByte('&')
			i++
			continue
		}
		b.WriteRune(r)
		i += width
	}
	return b.String()
}

// AppendUnescapedEntities appends the entity-decoded form of s to dst and
// returns the extended slice. The decoding semantics are byte-identical to
// UnescapeEntities; the append form lets streaming consumers decode into a
// reusable buffer without per-call allocation.
func AppendUnescapedEntities(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		if s[i] != '&' {
			j := strings.IndexByte(s[i:], '&')
			if j < 0 {
				return append(dst, s[i:]...)
			}
			dst = append(dst, s[i:i+j]...)
			i += j
			continue
		}
		r, width, ok := decodeEntity(s[i:])
		if !ok {
			dst = append(dst, '&')
			i++
			continue
		}
		dst = utf8.AppendRune(dst, r)
		i += width
	}
	return dst
}

// decodeEntity decodes one character reference at the start of s
// (s[0] == '&'). It returns the rune, the number of input bytes consumed,
// and whether the reference was valid.
func decodeEntity(s string) (rune, int, bool) {
	// Longest named entity in our table is 6 letters + '&' + ';' = 8.
	end := len(s)
	if end > 12 {
		end = 12
	}
	semi := strings.IndexByte(s[:end], ';')
	if semi < 2 {
		return 0, 0, false
	}
	body := s[1:semi]
	if body[0] == '#' {
		num := body[1:]
		base := 10
		if len(num) > 0 && (num[0] == 'x' || num[0] == 'X') {
			base = 16
			num = num[1:]
		}
		v, err := strconv.ParseUint(num, base, 32)
		if err != nil || v == 0 || v > 0x10FFFF {
			return 0, 0, false
		}
		return rune(v), semi + 1, true
	}
	if r, ok := namedEntities[body]; ok {
		return r, semi + 1, true
	}
	return 0, 0, false
}

// The escapers are built once: a strings.Replacer is safe for concurrent
// use, and constructing one per call dominated Render on text-heavy pages.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// EscapeText encodes the characters that must not appear raw in text
// content: & and <. (> is escaped too for symmetry with encoding/xml.)
func EscapeText(s string) string { return textEscaper.Replace(s) }

// EscapeAttr encodes a double-quoted attribute value.
func EscapeAttr(s string) string { return attrEscaper.Replace(s) }
