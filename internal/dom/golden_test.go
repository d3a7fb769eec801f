package dom_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dom"
)

// goldenExtra adds tree shapes the FuzzParse seeds touch only lightly:
// attribute keys and values, skeleton attribute merges, comments and
// doctypes in every position, self-closed raw-text elements, and text
// nodes coalesced from several tokens.
var goldenExtra = []string{
	`<a href=1 href=2 HREF="three">dup</a>`,
	`<html lang=en><body class=a><html LANG=fr data-x><body CLASS="b&amp;c" id=z>t</body>`,
	`<head profile=x><body><p title="&lt;&#x41;&bogus;">v</p>`,
	"<p İD=1 Ⱥ=2 \xff=3 \xc3=4>keys</p>", "<body İ=1 İ=22>k</body>",
	`<img src="x"/><br clear=all><input value='v' disabled>`,
	"<title/>a&amp;b<p>c", "<title/><style>t</style></title><meta x><p>b", "<style/><b>x</b><link>",
	"x<!-- c -->y<!doctype html>z<p><!--in p-->w</p><!doctype again>",
	"<title>t</title><!-- head? --><p>b</p>", "<td>a</td>\n<!-- x -->\n<td>b",
	"<pre>  keep  </pre><div> </div><h1> spaced &nbsp; </h1>",
	"<TABLE Border=1><TR><TD>a<TD>b</TABLE><custom-el X=1>c</custom-el>",
	// Text coalescing across dropped tags, entities and stray '<'.
	"x<head>y</td>z&amp;w</>v<body>u", "a < b <3 c&lt;d", "<pre>\n  a</x>  b</pre>",
}

// goldenInputs returns the named inputs TestParseGolden pins: every
// FuzzParse seed, goldenExtra, and every generated movies, books and
// forum page.
func goldenInputs() (names, srcs []string) {
	add := func(name, src string) {
		names = append(names, name)
		srcs = append(srcs, src)
	}
	for i, s := range dom.FuzzSeeds {
		add(fmt.Sprintf("seed/%03d", i), s)
	}
	for i, s := range goldenExtra {
		add(fmt.Sprintf("extra/%03d", i), s)
	}
	for _, cl := range []*corpus.Cluster{
		corpus.GenerateMovies(corpus.DefaultMovieProfile(1, 20)),
		corpus.GenerateBooks(corpus.DefaultBookProfile(5, 20)),
		corpus.GenerateForum(corpus.DefaultForumProfile(13, 20)),
	} {
		for i, p := range cl.Pages {
			add(fmt.Sprintf("%s/%03d", cl.Name, i), dom.Render(p.Doc))
		}
	}
	return names, srcs
}

func parseDigest(src string) string {
	sum := sha256.Sum256([]byte(dom.Render(dom.Parse(src))))
	return hex.EncodeToString(sum[:])
}

// TestParseGolden pins every parsed tree byte for byte: the SHA-256 of
// Render(Parse(src)) for each input must equal the digest recorded in
// testdata/parse_golden.txt. Render covers element names, attributes in
// order, text, comments and the doctype, so any change to tree
// construction shows here even when a round trip still reaches a fixed
// point.
func TestParseGolden(t *testing.T) {
	f, err := os.Open("testdata/parse_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	names, srcs := goldenInputs()
	if len(names) != len(want) {
		t.Errorf("%d inputs, %d golden digests", len(names), len(want))
	}
	for i, name := range names {
		if got := parseDigest(srcs[i]); got != want[name] {
			t.Errorf("%s: tree digest %s, golden %s (input %.80q)", name, got, want[name], srcs[i])
		}
	}
}
