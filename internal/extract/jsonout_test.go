package extract

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONValueLeaf(t *testing.T) {
	e := NewElement("title")
	e.Text = "Taxi Driver"
	if got := e.JSONValue(); got != "Taxi Driver" {
		t.Fatalf("leaf = %#v", got)
	}
}

func TestJSONValueMultivaluedBecomesArray(t *testing.T) {
	page := NewElement("imdb-movie")
	page.SetAttr("uri", "http://x/1")
	page.Add(NewElement("title")).Text = "T"
	page.Add(NewElement("actor")).Text = "A"
	page.Add(NewElement("actor")).Text = "B"
	obj, ok := page.JSONValue().(map[string]any)
	if !ok {
		t.Fatalf("page = %#v", page.JSONValue())
	}
	if obj["@uri"] != "http://x/1" {
		t.Errorf("@uri = %v", obj["@uri"])
	}
	if obj["title"] != "T" {
		t.Errorf("single child must stay scalar: %v", obj["title"])
	}
	actors, ok := obj["actor"].([]any)
	if !ok || len(actors) != 2 || actors[0] != "A" || actors[1] != "B" {
		t.Errorf("actor = %#v", obj["actor"])
	}
}

func TestJSONValueNestedAggregate(t *testing.T) {
	page := NewElement("imdb-movie")
	op := page.Add(NewElement("users-opinion"))
	op.Add(NewElement("rating")).Text = "8.5/10"
	op.Add(NewElement("comment")).Text = "great"
	op.Add(NewElement("comment")).Text = "loved it"
	obj := page.JSONValue().(map[string]any)
	opinion, ok := obj["users-opinion"].(map[string]any)
	if !ok {
		t.Fatalf("users-opinion = %#v", obj["users-opinion"])
	}
	if opinion["rating"] != "8.5/10" {
		t.Errorf("rating = %v", opinion["rating"])
	}
	if cs, ok := opinion["comment"].([]any); !ok || len(cs) != 2 {
		t.Errorf("comment = %#v", opinion["comment"])
	}
}

func TestJSONValueAttributedLeaf(t *testing.T) {
	e := NewElement("page")
	e.SetAttr("uri", "u")
	e.Text = "body"
	obj, ok := e.JSONValue().(map[string]any)
	if !ok || obj["@uri"] != "u" || obj["#text"] != "body" {
		t.Fatalf("attributed leaf = %#v", e.JSONValue())
	}
}

func TestJSONStringRoundTrips(t *testing.T) {
	page := NewElement("movie")
	page.Add(NewElement("title")).Text = "T <&> \"q\""
	var decoded map[string]any
	if err := json.Unmarshal([]byte(page.JSONString()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, page.JSONString())
	}
	movie := decoded["movie"].(map[string]any)
	if movie["title"] != "T <&> \"q\"" {
		t.Errorf("title = %v", movie["title"])
	}
	want, err := json.MarshalIndent(map[string]any{"movie": page.JSONValue()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if page.JSONString() != string(want) {
		t.Errorf("JSONString diverges from json.MarshalIndent\n  got  %s\n  want %s", page.JSONString(), want)
	}
}

// TestJSONMatchesExtraction ties the encoder to real extraction output:
// the Figure 5 movie pages rendered as JSON carry the same values as the
// XML document.
func TestJSONMatchesExtraction(t *testing.T) {
	repo := figure5Repo(t)
	p, err := NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}
	pages := moviePages()
	el, _ := p.ExtractPage(pages[0])
	obj, ok := el.JSONValue().(map[string]any)
	if !ok {
		t.Fatalf("JSONValue = %#v", el.JSONValue())
	}
	if obj["@uri"] != pages[0].URI {
		t.Errorf("@uri = %v", obj["@uri"])
	}
	for _, c := range el.Children {
		if _, present := obj[c.Name]; !present {
			t.Errorf("component %q missing from JSON", c.Name)
		}
	}
}

// appendJSONMatches requires AppendJSON to write exactly what
// json.Marshal(JSONValue()) writes.
func appendJSONMatches(t *testing.T, e *Element) {
	t.Helper()
	want, err := json.Marshal(e.JSONValue())
	if err != nil {
		t.Fatal(err)
	}
	if got := e.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON diverges from json.Marshal(JSONValue())\n  got  %s\n  want %s", got, want)
	}
}

// fuzzStrings is the name and text pool fuzzElement draws from: plain
// names, the "@"/"#text" spellings that collide with the mapping's own
// keys, HTML-sensitive bytes, control bytes, U+2028/U+2029 and invalid
// UTF-8.
var fuzzStrings = []string{
	"a", "b", "title", "actor", "@a", "@", "#text", "", "a\"b\\c",
	"x<&>y", "\t\n\r\x00\x1f\x7f", "line\xe2\x80\xa8sep\xe2\x80\xa9", "bad\xff\xfe", "\xc3", "é ü 世界",
}

// fuzzElement builds an element tree from opcode pairs: (op, arg) adds a
// nested or leaf child, an attribute, text, or pops back to the parent,
// with names and values drawn from fuzzStrings plus the two fuzz strings.
func fuzzElement(ops []byte, s1, s2 string) *Element {
	pool := append(append([]string(nil), fuzzStrings...), s1, s2)
	pick := func(b byte) string { return pool[int(b)%len(pool)] }
	root := NewElement("root")
	stack := []*Element{root}
	for i := 0; i+1 < len(ops); i += 2 {
		cur, arg := stack[len(stack)-1], ops[i+1]
		switch ops[i] % 6 {
		case 0:
			child := cur.Add(NewElement(pick(arg)))
			if len(stack) < 8 {
				stack = append(stack, child)
			}
		case 1:
			cur.Add(NewElement(pick(arg))).Text = pick(arg / 3)
		case 2:
			cur.SetAttr(pick(arg), pick(arg/5))
		case 3:
			cur.Text += pick(arg)
		case 4:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		case 5:
			cur.Add(NewElement(pick(arg)))
		}
	}
	return root
}

// FuzzElementJSON is the differential guarantee of the direct JSON
// encoder: for arbitrary element trees — repeated child names, key
// collisions, escapes, invalid UTF-8 — AppendJSON equals
// json.Marshal(JSONValue()) byte for byte. The seeds run in every plain
// `go test`; `go test -fuzz=FuzzElementJSON ./internal/extract` mutates
// from them.
func FuzzElementJSON(f *testing.F) {
	f.Add([]byte{}, "", "")
	f.Add([]byte{3, 10}, "", "")                                    // plain leaf with <&>
	f.Add([]byte{2, 0, 3, 11}, "", "")                              // attributed leaf with #text
	f.Add([]byte{2, 0, 2, 0}, "", "")                               // repeated attribute
	f.Add([]byte{2, 0, 5, 4}, "", "")                               // child "@a" collides with attr a
	f.Add([]byte{2, 5, 1, 4, 1, 7}, "", "")                         // "@" attr, "@a" and "" children
	f.Add([]byte{1, 3, 1, 3, 1, 2, 1, 3, 0, 1, 1, 0, 4, 0}, "", "") // arrays and nesting
	f.Add([]byte{1, 11, 1, 12, 2, 13, 1, 14}, "", "")               // U+2028, invalid UTF-8
	f.Add([]byte{1, 15, 1, 16, 2, 15, 0, 16, 3, 15}, "k\xe2\x80\xa9", "@k")
	f.Fuzz(func(t *testing.T, ops []byte, s1, s2 string) {
		if len(ops) > 4096 {
			t.Skip("bounded tree size")
		}
		appendJSONMatches(t, fuzzElement(ops, s1, s2))
	})
}

// TestAppendJSONShapes pins the mapping's corner shapes on the direct
// path and on both collision fallbacks, plus an element past the
// direct path's distinct-key bound.
func TestAppendJSONShapes(t *testing.T) {
	leaf := NewElement("t")
	leaf.Text = "T <&> \"q\""
	attributed := NewElement("p")
	attributed.SetAttr("uri", "u")
	attributed.Text = "body"
	bare := NewElement("p")
	bare.SetAttr("uri", "u")
	dupAttr := NewElement("p")
	dupAttr.SetAttr("x", "1")
	dupAttr.SetAttr("x", "2")
	childCollides := NewElement("p")
	childCollides.SetAttr("x", "attr")
	childCollides.Add(NewElement("@x")).Text = "child"
	childCollides.Add(NewElement("a")).Text = "1"
	wide := NewElement("wide")
	for i := 0; i < maxDirectKeys+10; i++ {
		wide.Add(NewElement(strings.Repeat("k", i%7+1) + string(rune('a'+i%26)) + strings.Repeat("z", i/26))).Text = "v"
	}
	wide.Add(NewElement("ka")).Text = "again"
	for name, e := range map[string]*Element{
		"leaf": leaf, "attributed": attributed, "bare": bare, "dupAttr": dupAttr,
		"childCollides": childCollides, "wide": wide,
	} {
		t.Run(name, func(t *testing.T) { appendJSONMatches(t, e) })
	}
}

// TestAppendJSONMatchesExtraction runs the Figure 5 movie pages through
// both encoders.
func TestAppendJSONMatchesExtraction(t *testing.T) {
	p, err := NewProcessor(figure5Repo(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, page := range moviePages() {
		el, _ := p.ExtractPage(page)
		appendJSONMatches(t, el)
	}
}

// indentedMatches requires AppendIndented to write exactly what
// json.Indent writes for the compact JSON text src, onto a non-empty dst.
func indentedMatches(t *testing.T, src []byte) {
	t.Helper()
	var want bytes.Buffer
	want.WriteString("prefix")
	if err := json.Indent(&want, src, "", "  "); err != nil {
		t.Fatalf("json.Indent(%q): %v", src, err)
	}
	if got := AppendIndented([]byte("prefix"), src); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("AppendIndented diverges from json.Indent on %q\n  got  %s\n  want %s", src, got, want.Bytes())
	}
}

// FuzzAppendIndented is the differential guarantee of the hand-written
// indenter: on the compact JSON of arbitrary element trees it writes
// json.Indent's bytes, and the element's JSON document equals
// json.MarshalIndent's. The seeds put JSON punctuation, escaped quotes,
// trailing backslashes, U+2028 and invalid UTF-8 inside strings, where
// the indenter must copy them verbatim. s1, when it is valid JSON on its
// own, is compacted and indented too, which reaches numbers, literals,
// empty objects and arrays, and nesting deeper than element trees get.
func FuzzAppendIndented(f *testing.F) {
	f.Add([]byte{}, "", "")
	f.Add([]byte{1, 15, 1, 16}, `{"a":[1,{}]}`, `,:[]{}`)
	f.Add([]byte{2, 15, 3, 16, 1, 15}, `a\"b`, `}]"`)
	f.Add([]byte{1, 15, 1, 16, 0, 15, 1, 16}, `tail\`, `\\"`)
	f.Add([]byte{1, 11, 1, 12, 2, 13, 3, 15}, " {", "\xff:\"")
	f.Add([]byte{0, 15, 0, 16, 0, 15, 1, 16, 4, 0, 1, 15}, `[[[[[[[[[[[[[[[[[[[[[[[["x"]]]]]]]]]]]]]]]]]]]]]]]]`, `{"":{},"b":[[],[{}]]," ":null}`)
	f.Add([]byte{1, 3, 1, 3, 2, 15}, `[true,false,-1.5e-7,0," "]`, `"\\"`)
	f.Fuzz(func(t *testing.T, ops []byte, s1, s2 string) {
		if len(ops) > 4096 || len(s1) > 4096 {
			t.Skip("bounded input size")
		}
		e := fuzzElement(ops, s1, s2)
		indentedMatches(t, e.AppendJSON(nil))
		want, err := json.MarshalIndent(map[string]any{e.Name: e.JSONValue()}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got := e.JSONString(); got != string(want) {
			t.Fatalf("JSONString diverges from json.MarshalIndent\n  got  %s\n  want %s", got, want)
		}
		if json.Valid([]byte(s1)) {
			var compact bytes.Buffer
			if err := json.Compact(&compact, []byte(s1)); err != nil {
				t.Fatal(err)
			}
			indentedMatches(t, compact.Bytes())
		}
	})
}
