package extract

import (
	"encoding/json"
	"io"
	"strings"
	"unicode/utf8"
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
		return AppendJSONString(dst, e.Text)
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
			dst = appendJSONStringBody(dst, k.name)
			dst = append(dst, `":`...)
			dst = AppendJSONString(dst, e.Attrs[k.idx].Value)
			continue
		case k.idx < 0:
			dst = append(dst, `"#text":`...)
			dst = AppendJSONString(dst, e.Text)
			continue
		}
		dst = AppendJSONString(dst, k.name)
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

// AppendJSONString appends s as a JSON string literal exactly as
// encoding/json writes it by default: the HTML-sensitive <, > and &
// escaped, U+2028 and U+2029 escaped, and each invalid UTF-8 byte
// replaced by an escaped U+FFFD.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendJSONStringBody(dst, s)
	return append(dst, '"')
}

func appendJSONStringBody(dst []byte, s string) []byte {
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

// WriteJSON serializes the element as indented JSON, wrapped in a
// single-key object naming the element — the JSON analogue of WriteXML.
func (e *Element) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{e.Name: e.JSONValue()})
}

// JSONString returns the serialized JSON document.
func (e *Element) JSONString() string {
	b, err := json.MarshalIndent(map[string]any{e.Name: e.JSONValue()}, "", "  ")
	if err != nil {
		return ""
	}
	return string(b)
}
