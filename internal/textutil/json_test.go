package textutil

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

// jsonSkipSeeds cover every value type, the escapes, the number grammar
// and the malformed shapes Skip must refuse.
var jsonSkipSeeds = []string{
	`{"a":[1,-0,2.5e-3,1E+2,true,false,null,"x\"\\\/\b\f\n\r\té"],"b":{}}`,
	` [ ] `, `{}`, `""`, `"😀"`, `"\ud800"`, "\"caf\xe9\"", "\"tab\t\"",
	`01`, `1.`, `.5`, `-`, `1e`, `+1`, `tru`, `nul`, `truex`, `"\x"`, `"\u12g4"`,
	`{"a"}`, `{"a":}`, `{"a":1,}`, `[1,]`, `[1 2]`, `{1:2}`, `{"a":1 "b":2}`,
	`[1:2]`, `"unterminated`, `[`, `]`, `}`, ``, ` `, "\x00", `1 2`,
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
	strings.Repeat(`{"a":`, 10000) + "1" + strings.Repeat("}", 10000),
}

// FuzzJSONReaderSkip: Skip followed by End accepts exactly the inputs
// json.Valid does — the store relies on it to check a record's data
// as encoding/json would.
func FuzzJSONReaderSkip(f *testing.F) {
	for _, s := range jsonSkipSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r JSONReader
		r.Reset(data)
		r.Skip()
		r.End()
		if got, want := r.OK(), json.Valid(data); got != want {
			t.Fatalf("Skip+End on %.200q: ok %v, json.Valid %v", data, got, want)
		}
	})
}

// TestJSONReaderTokens reads one canonical object through every token
// method and refuses what a canonical decoder must hand to
// encoding/json.
func TestJSONReaderTokens(t *testing.T) {
	var r JSONReader
	r.Reset([]byte(` { "s" : "a<b\n" , "n" : -42 , "b" : true , "rest" : {"x":[1]} } `))
	r.Byte('{')
	r.Key("s")
	s := r.String()
	r.Byte(',')
	if r.IsKey("nope") {
		t.Fatal("IsKey matched another key")
	}
	r.Key("n")
	n := r.Int()
	r.Byte(',')
	r.Key("b")
	b := r.Bool()
	r.Byte(',')
	r.Key("rest")
	rest := r.Tail('}')
	if !r.OK() || s != "a<b\n" || n != -42 || !b || string(rest) != `{"x":[1]}` {
		t.Fatalf("ok %v: %q %d %v %q", r.OK(), s, n, b, rest)
	}
	for _, bad := range []struct {
		in   string
		read func(*JSONReader)
	}{
		{`1.5`, func(r *JSONReader) { r.Int() }},
		{`1e3`, func(r *JSONReader) { r.Int() }},
		{`1234567890123456789`, func(r *JSONReader) { r.Int() }},
		{`007`, func(r *JSONReader) { r.Int() }},
		{`"\ud83d\ude00"`, func(r *JSONReader) { _ = r.String() }},
		{"\"\xff\"", func(r *JSONReader) { _ = r.String() }},
		{`"K":1`, func(r *JSONReader) { r.Key("k") }},
		{`"k ":1`, func(r *JSONReader) { r.Key("k") }},
		{`nul`, func(r *JSONReader) { r.Bool() }},
		{`{"a":1}x`, func(r *JSONReader) { r.Skip(); r.End() }},
		{"{}\x00", func(r *JSONReader) { r.Skip(); r.End() }},
		{`{"a":1`, func(r *JSONReader) { r.Byte('{'); r.Key("a"); r.Tail('}') }},
	} {
		var r JSONReader
		r.Reset([]byte(bad.in))
		bad.read(&r)
		if r.OK() {
			t.Errorf("reading %q succeeded", bad.in)
		}
	}
}

// FuzzJSONReaderString: a string literal String reads decodes to the
// value json.Unmarshal gives, and String refuses only what
// encoding/json refuses or what lies outside the subset (invalid UTF-8,
// surrogate escapes). One reader serves every input, so a scratch left
// by an earlier string must not leak into a later one.
func FuzzJSONReaderString(f *testing.F) {
	for _, s := range []string{
		`"plain"`, `"a\u003cb\u003e&amp;\u0026"`, `"\"\\\/\b\f\n\r\t"`, `"\u00e9\u20AC\uFFFF"`,
		"\"caf\xc3\xa9\\n\"", "\"\\n\xff\"", `"\ud83d\ude00"`, `"\uDC00"`, `"\u12g4"`, `"\u00"`,
		`"\x"`, `"a\`, `"a\n`, "\"\\n\x01\"", `"\u003c`, ` "x" `, `"x"y`,
	} {
		f.Add([]byte(s))
	}
	var r JSONReader
	surrogate := regexp.MustCompile(`\\u[dD][89a-fA-F]`)
	f.Fuzz(func(t *testing.T, data []byte) {
		r.Reset(data)
		got := r.String()
		r.End()
		var want string
		err := json.Unmarshal(data, &want)
		switch {
		case r.OK() && (err != nil || got != want):
			t.Fatalf("String on %q = %q, json.Unmarshal %q (err %v)", data, got, want, err)
		case !r.OK() && err == nil && utf8.Valid(data) && !surrogate.Match(data):
			t.Fatalf("String refused %q, json.Unmarshal reads %q", data, want)
		}
	})
}
