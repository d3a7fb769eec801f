package extract

import (
	"encoding/xml"
	"math/rand"
	"strings"
	"testing"
)

// randomElement builds a random output tree with adversarial content.
func randomElement(r *rand.Rand, depth int) *Element {
	names := []string{"a", "b", "item", "value", "users-opinion"}
	e := NewElement(names[r.Intn(len(names))])
	if r.Intn(2) == 0 {
		e.SetAttr("uri", randText(r))
	}
	if depth <= 0 || r.Intn(3) == 0 {
		e.Text = randText(r)
		return e
	}
	for i := 0; i < r.Intn(4); i++ {
		e.Add(randomElement(r, depth-1))
	}
	return e
}

func randText(r *rand.Rand) string {
	pieces := []string{"plain", "<tag>", "&amp;", "&", `"quoted"`, "'single'",
		"a < b > c", "108 min", "été ★", "]]>", "\tws\n"}
	var b strings.Builder
	for i := 0; i <= r.Intn(3); i++ {
		b.WriteString(pieces[r.Intn(len(pieces))])
	}
	return b.String()
}

// TestPropertyXMLWellFormed: every serialized document parses with
// encoding/xml and round-trips its text content.
func TestPropertyXMLWellFormed(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		root := randomElement(r, 3)
		out := root.XMLString()
		dec := xml.NewDecoder(strings.NewReader(out))
		var textParts []string
		var attrParts []string
		for {
			tok, err := dec.Token()
			if err != nil {
				if err.Error() == "EOF" {
					break
				}
				t.Fatalf("iteration %d: invalid XML: %v\n%s", i, err, out)
			}
			switch x := tok.(type) {
			case xml.CharData:
				textParts = append(textParts, string(x))
			case xml.StartElement:
				for _, a := range x.Attr {
					attrParts = append(attrParts, a.Value)
				}
			}
		}
		// Every Text value must be recoverable from the parsed stream.
		joined := strings.Join(textParts, "")
		var checkTexts func(e *Element)
		failed := false
		checkTexts = func(e *Element) {
			if failed {
				return
			}
			if e.Text != "" && !strings.Contains(joined, strings.TrimSpace(e.Text)) &&
				strings.TrimSpace(e.Text) != "" {
				// Whitespace normalization by the decoder can only touch
				// leading/trailing space of chardata chunks; the trimmed
				// text must appear.
				t.Fatalf("iteration %d: text %q lost in output\n%s", i, e.Text, out)
			}
			for _, c := range e.Children {
				checkTexts(c)
			}
		}
		checkTexts(root)
		joinedAttrs := strings.Join(attrParts, "\x00")
		var checkAttrs func(e *Element)
		checkAttrs = func(e *Element) {
			for _, a := range e.Attrs {
				if !strings.Contains(joinedAttrs, a.Value) {
					t.Fatalf("iteration %d: attr %q lost\n%s", i, a.Value, out)
				}
			}
			for _, c := range e.Children {
				checkAttrs(c)
			}
		}
		checkAttrs(root)
	}
}
