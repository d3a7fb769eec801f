package extract

import (
	"bytes"
	"encoding/json"
	"strings"

	"repro/internal/textutil"
)

// JSON rendering of extraction output, the service-friendly sibling of
// the paper's XML document: the same element tree, mapped with a compact
// XML→JSON convention so records round-trip into ordinary JSON consumers.
//
// Mapping rules:
//
//   - attributes become "@name" keys;
//   - a leaf element (no children) contributes its text as a plain string,
//     or an object carrying "@attrs" plus "#text" when it has attributes;
//   - children are grouped by element name; a name occurring once maps to
//     its value, a name occurring several times maps to an array — so
//     multivalued components ("actor") naturally become JSON arrays;
//   - an element with both attributes and children merges "@attr" keys
//     into the children object.
//
// The grouping loses sibling interleaving order between *different*
// component names, which the XML keeps; order among same-named siblings
// is preserved. That trade is standard for record-oriented consumers —
// anyone who needs exact document order asks for XML.

// JSONValue returns the element rendered as a generic JSON-ready value
// (string or map[string]any), following the package's XML→JSON mapping.
func (e *Element) JSONValue() any {
	if len(e.Children) == 0 && len(e.Attrs) == 0 {
		return e.Text
	}
	obj := make(map[string]any, len(e.Attrs)+len(e.Children)+1)
	for _, a := range e.Attrs {
		obj["@"+a.Name] = a.Value
	}
	if len(e.Children) == 0 {
		if e.Text != "" {
			obj["#text"] = e.Text
		}
		return obj
	}
	// Group children by name, preserving per-name order.
	order := make([]string, 0, len(e.Children))
	grouped := map[string][]any{}
	for _, c := range e.Children {
		if _, seen := grouped[c.Name]; !seen {
			order = append(order, c.Name)
		}
		grouped[c.Name] = append(grouped[c.Name], c.JSONValue())
	}
	for _, name := range order {
		vs := grouped[name]
		if len(vs) == 1 {
			obj[name] = vs[0]
		} else {
			obj[name] = vs
		}
	}
	return obj
}

// AppendJSON appends the element's JSON value to dst: exactly the bytes
// json.Marshal(e.JSONValue()) produces, written directly instead of
// through the intermediate map[string]any/[]any tree. Keys come out
// sorted and strings escaped as AppendJSONString does. An element whose
// keys collide (a repeated attribute name, or a child named like one of
// its "@attr" keys) takes the JSONValue route, whose map settles the
// collision; so does an element with more than maxDirectKeys distinct
// keys, which keeps the direct path's linear key handling bounded.
func (e *Element) AppendJSON(dst []byte) []byte {
	if len(e.Children) == 0 && len(e.Attrs) == 0 {
		return textutil.AppendJSONString(dst, e.Text)
	}
	var arr [16]jsonKey
	keys := arr[:0]
	for i, a := range e.Attrs {
		keys = append(keys, jsonKey{name: a.Name, attr: true, idx: i})
	}
	if len(e.Children) == 0 {
		if e.Text != "" {
			keys = append(keys, jsonKey{name: "#text", idx: -1})
		}
	} else {
	children:
		for i, c := range e.Children {
			for k := len(e.Attrs); k < len(keys); k++ {
				if keys[k].name == c.Name {
					keys[k].count++
					continue children
				}
			}
			if len(keys) == maxDirectKeys {
				return appendJSONValue(dst, e)
			}
			keys = append(keys, jsonKey{name: c.Name, idx: i, count: 1})
		}
	}
	// Insertion sort: records carry a handful of keys, and equal
	// neighbours are exactly the collisions.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0; j-- {
			c := keys[j-1].compare(keys[j])
			if c == 0 {
				return appendJSONValue(dst, e)
			}
			if c < 0 {
				break
			}
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch {
		case k.attr:
			dst = append(dst, `"@`...)
			dst = textutil.AppendJSONStringBody(dst, k.name)
			dst = append(dst, `":`...)
			dst = textutil.AppendJSONString(dst, e.Attrs[k.idx].Value)
			continue
		case k.idx < 0:
			dst = append(dst, `"#text":`...)
			dst = textutil.AppendJSONString(dst, e.Text)
			continue
		}
		dst = textutil.AppendJSONString(dst, k.name)
		dst = append(dst, ':')
		if k.count == 1 {
			dst = e.Children[k.idx].AppendJSON(dst)
			continue
		}
		dst = append(dst, '[')
		for j, n := k.idx, 0; n < k.count; j++ {
			if c := e.Children[j]; c.Name == k.name {
				if n > 0 {
					dst = append(dst, ',')
				}
				dst = c.AppendJSON(dst)
				n++
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// maxDirectKeys bounds the distinct keys AppendJSON handles itself.
const maxDirectKeys = 64

// jsonKey is one object key of AppendJSON: an attribute ("@"+name), the
// "#text" of an attributed leaf (idx -1), or a child-name group starting
// at child idx with count members.
type jsonKey struct {
	name  string
	attr  bool
	idx   int
	count int
}

// compare orders keys as encoding/json sorts map keys (bytewise on the
// full key, "@" prefix included) without building the prefixed string.
func (k jsonKey) compare(o jsonKey) int {
	switch {
	case k.attr == o.attr:
		return strings.Compare(k.name, o.name)
	case o.attr:
		return -o.compare(k)
	// From here k is "@"+k.name and o a child name.
	case o.name == "":
		return 1
	case o.name[0] != '@':
		return int('@') - int(o.name[0])
	default:
		return strings.Compare(k.name, o.name[1:])
	}
}

// appendJSONValue is AppendJSON's reference route.
func appendJSONValue(dst []byte, e *Element) []byte {
	// JSONValue holds only strings, maps and slices: Marshal cannot fail.
	b, _ := json.Marshal(e.JSONValue())
	return append(dst, b...)
}

// AppendIndented appends src, a compact JSON text such as AppendJSON
// writes, to dst indented exactly as json.Indent(dst, src, "", "  ")
// would: each element and key on its own line, two spaces per level,
// ": " after keys, empty objects and arrays left as {} and [], and
// string literals copied verbatim. Unlike json.Indent it does not
// validate: src must hold no whitespace between tokens, and what it
// writes for anything but valid compact JSON is unspecified.
func AppendIndented(dst, src []byte) []byte {
	depth := 0
	open := false // just wrote '{' or '[': indent unless it closes at once
	for i := 0; i < len(src); i++ {
		c := src[i]
		if open {
			open = false
			if c == '}' || c == ']' {
				dst = append(dst, c)
				continue
			}
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '"':
			end := stringEnd(src, i+1)
			dst = append(dst, src[i:end]...)
			i = end - 1
		case '{', '[':
			open = true
			dst = append(dst, c)
		case ',':
			dst = appendNewline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		case '}', ']':
			depth--
			dst = append(appendNewline(dst, depth), c)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// stringEnd returns the index just past the closing quote of the string
// literal whose body starts at src[i], or len(src) when it is
// unterminated. A quote ends the literal unless an odd run of
// backslashes precedes it.
func stringEnd(src []byte, i int) int {
	for {
		k := bytes.IndexByte(src[i:], '"')
		if k < 0 {
			return len(src)
		}
		q := i + k
		n := 0
		for src[q-n-1] == '\\' {
			n++
		}
		if n%2 == 0 {
			return q + 1
		}
		i = q + 1
	}
}

// indentSpaces is the run appendNewline copies indentation from, 16
// levels per append.
const indentSpaces = "                                "

// appendNewline appends a newline and depth levels of indentation.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; 2*depth > len(indentSpaces); depth -= len(indentSpaces) / 2 {
		dst = append(dst, indentSpaces...)
	}
	return append(dst, indentSpaces[:2*depth]...)
}

// jsonDocument returns the element's JSON document, a single-key object
// naming the element, indented as json.MarshalIndent(…, "", "  ")
// writes it.
func (e *Element) jsonDocument() []byte {
	compact := append(textutil.AppendJSONString([]byte{'{'}, e.Name), ':')
	compact = append(e.AppendJSON(compact), '}')
	return AppendIndented(nil, compact)
}

// JSONString returns the serialized JSON document.
func (e *Element) JSONString() string {
	return string(e.jsonDocument())
}
