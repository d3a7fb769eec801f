package textutil

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestNormalizeSpace(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"   ", ""},
		{"a", "a"},
		{"  a  ", "a"},
		{"a   b", "a b"},
		{"\ta\n b\r\nc ", "a b c"},
		{"108 min", "108 min"},
		{"a b", "a b"}, // non-breaking space is Unicode whitespace
	}
	for _, c := range cases {
		if got := NormalizeSpace(c.in); got != c.want {
			t.Errorf("NormalizeSpace(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeSpaceIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := NormalizeSpace(s)
		return NormalizeSpace(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeSpaceNoEdgeOrDoubleSpaces(t *testing.T) {
	f := func(s string) bool {
		out := NormalizeSpace(s)
		if out != strings.TrimSpace(out) {
			return false
		}
		return !strings.Contains(out, "  ")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokens(t *testing.T) {
	got := Tokens("The Quick-Brown FOX, 42 jumps!")
	want := []string{"the", "quick", "brown", "fox", "42", "jumps"}
	if len(got) != len(want) {
		t.Fatalf("Tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if len(Tokens("")) != 0 || len(Tokens("!!!")) != 0 {
		t.Error("empty inputs must yield no tokens")
	}
}

func TestTokensAreLowerAlnum(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokens(s) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					return false
				}
				if r != unicode.ToLower(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNormalizeSpaceBytesEquivalence pins AppendNormalizeSpaceBytes(dst,
// b) == dst + NormalizeSpace(string(b)) for arbitrary bytes — the
// streaming extractor depends on byte-identical normalization to keep
// its differential guarantee against the DOM path, and on appending
// leaving the bytes already in dst alone.
func TestNormalizeSpaceBytesEquivalence(t *testing.T) {
	cases := []string{
		"", "   ", " a  b\tc\nd ", "a b   c", "é èü",
		"\x80\xff bro\xc3(ken", "pre\vformatted\ftext", "né e",
	}
	const prefix = "kept "
	f := func(b []byte) bool {
		return string(AppendNormalizeSpaceBytes([]byte(prefix), b)) == prefix+NormalizeSpace(string(b))
	}
	for _, s := range cases {
		if !f([]byte(s)) {
			t.Errorf("AppendNormalizeSpaceBytes(%q, %q) = %q, want %q", prefix,
				s, AppendNormalizeSpaceBytes([]byte(prefix), []byte(s)), prefix+NormalizeSpace(s))
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTokenSetEquivalence pins the hot-path contract: TokenSet(s) must be
// exactly Shingles(Tokens(s), 1) for arbitrary input — same boundaries,
// same lower-casing, same set — since the clustering fingerprint depends
// on both producing identical keyword sets.
func TestTokenSetEquivalence(t *testing.T) {
	cases := []string{
		"", "!!!", "The Quick-Brown FOX, 42 jumps!",
		"ÉCOLE École école", "naïve Straße ΣΙΣΥΦΟΣ",
		"a\x00b \x80\xff broken\xc3(utf8", "१२३ ٤٥٦ digits",
		"repeat repeat REPEAT RePeAt", "mixed42alpha7num",
	}
	f := func(s string) bool {
		want := Shingles(Tokens(s), 1)
		got := TokenSet(s)
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				return false
			}
		}
		return true
	}
	for _, s := range cases {
		if !f(s) {
			t.Errorf("TokenSet(%q) = %v, want %v", s, TokenSet(s), Shingles(Tokens(s), 1))
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShingles(t *testing.T) {
	toks := []string{"a", "b", "c", "d"}
	s2 := Shingles(toks, 2)
	if len(s2) != 3 {
		t.Errorf("2-shingles of 4 tokens: %d, want 3", len(s2))
	}
	s1 := Shingles(toks, 1)
	if len(s1) != 4 {
		t.Errorf("1-shingles: %d, want 4", len(s1))
	}
	// k <= 0 degrades to 1.
	if len(Shingles(toks, 0)) != 4 {
		t.Error("k=0 must behave like k=1")
	}
	// Short input: single shingle of the whole sequence.
	if len(Shingles([]string{"x"}, 3)) != 1 {
		t.Error("short input must give one shingle")
	}
	if len(Shingles(nil, 2)) != 0 {
		t.Error("empty input must give no shingles")
	}
}

func TestJaccard(t *testing.T) {
	set := func(xs ...string) map[string]struct{} {
		m := map[string]struct{}{}
		for _, x := range xs {
			m[x] = struct{}{}
		}
		return m
	}
	if Jaccard(nil, nil) != 1 {
		t.Error("two empty sets are identical")
	}
	if Jaccard(set("a"), nil) != 0 {
		t.Error("empty vs non-empty = 0")
	}
	if got := Jaccard(set("a", "b"), set("b", "c")); got != 1.0/3 {
		t.Errorf("Jaccard = %f, want 1/3", got)
	}
	if Jaccard(set("a", "b"), set("a", "b")) != 1 {
		t.Error("identical sets = 1")
	}
}

func TestJaccardProperties(t *testing.T) {
	mk := func(xs []string) map[string]struct{} {
		m := map[string]struct{}{}
		for _, x := range xs {
			m[x] = struct{}{}
		}
		return m
	}
	f := func(a, b []string) bool {
		x, y := mk(a), mk(b)
		j1, j2 := Jaccard(x, y), Jaccard(y, x)
		if j1 != j2 {
			return false // symmetry
		}
		return j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinLimit(t *testing.T) {
	cases := []struct {
		a, b  string
		limit int
		want  int
	}{
		{"", "", -1, 0},
		{"abc", "abc", -1, 0},
		{"abc", "abd", -1, 1},
		{"abc", "", -1, 3},
		{"kitten", "sitting", -1, 3},
		{"tt0095159", "tt0071853", -1, 4},
		{"abc", "xyz", 1, 2}, // cutoff: anything > limit reported as limit+1
		{"abcdefgh", "a", 2, 3},
	}
	for _, c := range cases {
		if got := LevenshteinLimit(c.a, c.b, c.limit); got != c.want {
			t.Errorf("LevenshteinLimit(%q,%q,%d) = %d, want %d", c.a, c.b, c.limit, got, c.want)
		}
	}
}

func TestLevenshteinSymmetricNoLimit(t *testing.T) {
	f := func(a, b string) bool {
		return LevenshteinLimit(a, b, -1) == LevenshteinLimit(b, a, -1)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTruncateRunes(t *testing.T) {
	if TruncateRunes("hello", 10) != "hello" {
		t.Error("no truncation needed")
	}
	if got := TruncateRunes("hello world", 6); got != "hello…" {
		t.Errorf("truncated = %q", got)
	}
	if TruncateRunes("héllo wörld", 4) != "hél…" {
		t.Errorf("rune-aware truncation: %q", TruncateRunes("héllo wörld", 4))
	}
	if TruncateRunes("x", 0) != "" {
		t.Error("zero width")
	}
}
