package dom

import "testing"

// TestEscapersAllocationFree pins the package-level escapers: text that
// needs no escaping comes back without allocating, and text that does
// costs only the replacer's output buffer and result string — no
// strings.Replacer is built per call (that alone cost several allocs).
func TestEscapersAllocationFree(t *testing.T) {
	plain := "Runtime: 108 min, rated PG-13"
	dirty := `Tom & Jerry <"classic">`
	for _, tc := range []struct {
		name string
		fn   func(string) string
		in   string
		max  float64
	}{
		{"EscapeText/plain", EscapeText, plain, 0},
		{"EscapeAttr/plain", EscapeAttr, plain, 0},
		{"EscapeText/dirty", EscapeText, dirty, 2},
		{"EscapeAttr/dirty", EscapeAttr, dirty, 2},
	} {
		if got := testing.AllocsPerRun(100, func() { _ = tc.fn(tc.in) }); got > tc.max {
			t.Errorf("%s: %.1f allocs per call, want <= %.0f", tc.name, got, tc.max)
		}
	}
	if got, want := EscapeAttr(dirty), "Tom &amp; Jerry &lt;&quot;classic&quot;&gt;"; got != want {
		t.Errorf("EscapeAttr(%q) = %q, want %q", dirty, got, want)
	}
}
