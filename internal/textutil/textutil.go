// Package textutil provides small text-processing primitives shared by the
// clustering, rule-induction and corpus packages: whitespace normalization,
// token shingling, set-similarity metrics and edit distance.
//
// The package is dependency-free and purely functional; all functions are
// safe for concurrent use.
package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// NormalizeSpace collapses every run of Unicode whitespace in s into a
// single ASCII space and trims leading/trailing whitespace. It mirrors the
// XPath 1.0 normalize-space() function, which the extraction processor uses
// to clean component values before refinement.
func NormalizeSpace(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	inSpace := false
	started := false
	for _, r := range s {
		if unicode.IsSpace(r) {
			inSpace = true
			continue
		}
		if inSpace && started {
			b.WriteByte(' ')
		}
		inSpace = false
		started = true
		b.WriteRune(r)
	}
	return b.String()
}

// AppendNormalizeSpaceBytes appends NormalizeSpace(string(b)) to dst
// without an intermediate string — the streaming extractor normalizes
// captured values straight out of its arena, and one page's values
// share one buffer. ASCII runs copy byte-wise; multi-byte runes decode
// only to ask unicode.IsSpace (U+0085, U+00A0, the Unicode space
// property), and invalid UTF-8 collapses to U+FFFD exactly as
// NormalizeSpace's rune-range loop does.
func AppendNormalizeSpaceBytes(dst, b []byte) []byte {
	inSpace := false
	started := false
	for i := 0; i < len(b); {
		c := b[i]
		if c < utf8.RuneSelf {
			if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v' {
				inSpace = true
				i++
				continue
			}
			if inSpace && started {
				dst = append(dst, ' ')
			}
			inSpace = false
			started = true
			dst = append(dst, c)
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if unicode.IsSpace(r) {
			inSpace = true
			i += size
			continue
		}
		if inSpace && started {
			dst = append(dst, ' ')
		}
		inSpace = false
		started = true
		if r == utf8.RuneError && size == 1 {
			dst = utf8.AppendRune(dst, utf8.RuneError)
		} else {
			dst = append(dst, b[i:i+size]...)
		}
		i += size
	}
	return dst
}

// Tokens splits s into lower-cased alphanumeric word tokens. Used by the
// keyword-frequency clustering feature (Tonella et al. [22] in the paper).
func Tokens(s string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return toks
}

// TokenSet returns the set of lower-cased alphanumeric word tokens in s —
// exactly Shingles(Tokens(s), 1), computed without materializing the
// intermediate token slice. Each distinct token costs one allocation (its
// map key); repeated occurrences cost none. The keyword fingerprint on the
// ingest hot path calls this once per page, where the slice-of-lowered-
// copies regime of Tokens dominated the per-page allocation profile.
func TokenSet(s string) map[string]struct{} {
	set := make(map[string]struct{})
	buf := make([]byte, 0, 64)
	flush := func() {
		if len(buf) == 0 {
			return
		}
		if _, ok := set[string(buf)]; !ok {
			set[string(buf)] = struct{}{}
		}
		buf = buf[:0]
	}
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			switch {
			case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
				buf = append(buf, c)
			case 'A' <= c && c <= 'Z':
				buf = append(buf, c+('a'-'A'))
			default:
				flush()
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
		} else {
			flush()
		}
		i += size
	}
	flush()
	return set
}

// Shingles returns the set of k-grams over the token slice. A k of 1
// degrades to the token set itself. Shingling tag paths is how the page
// clusterer fingerprints HTML structure.
func Shingles(tokens []string, k int) map[string]struct{} {
	set := make(map[string]struct{})
	if k <= 0 {
		k = 1
	}
	if len(tokens) < k {
		if len(tokens) > 0 {
			set[strings.Join(tokens, "\x00")] = struct{}{}
		}
		return set
	}
	for i := 0; i+k <= len(tokens); i++ {
		set[strings.Join(tokens[i:i+k], "\x00")] = struct{}{}
	}
	return set
}

// Jaccard computes |a∩b| / |a∪b| for two string sets. Returns 1 when both
// sets are empty (two empty structures are identical, not dissimilar).
func Jaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for k := range a {
		if _, ok := b[k]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// LevenshteinLimit computes the Levenshtein edit distance between a and b,
// giving up (returning limit+1) as soon as the distance provably exceeds
// limit. A negative limit disables the cutoff. The URL-similarity feature
// of the clusterer compares path segments with a small edit budget.
func LevenshteinLimit(a, b string, limit int) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	if limit >= 0 && len(rb)-len(ra) > limit {
		return limit + 1
	}
	prev := make([]int, len(ra)+1)
	cur := make([]int, len(ra)+1)
	for i := range prev {
		prev[i] = i
	}
	for j := 1; j <= len(rb); j++ {
		cur[0] = j
		rowMin := cur[0]
		for i := 1; i <= len(ra); i++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[i] = min3(prev[i]+1, cur[i-1]+1, prev[i-1]+cost)
			if cur[i] < rowMin {
				rowMin = cur[i]
			}
		}
		if limit >= 0 && rowMin > limit {
			return limit + 1
		}
		prev, cur = cur, prev
	}
	return prev[len(ra)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// TruncateRunes shortens s to at most n runes, appending "…" when truncated.
// Used by the tabular rule-checking reports (paper Table 1 style).
func TruncateRunes(s string, n int) string {
	if n <= 0 {
		return ""
	}
	runes := []rune(s)
	if len(runes) <= n {
		return s
	}
	return string(runes[:n-1]) + "…"
}
