package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The reflective codec the signature's direct one replaced, kept as the
// oracle of the differential tests: sorted pairs through json.Marshal
// out, json.Unmarshal into the pairs form in.

func oracleMarshal(s *Signature) ([]byte, error) {
	type kv struct {
		K string `json:"k"`
		N int    `json:"n"`
	}
	sorted := func(m map[string]int) []kv {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]kv, 0, len(keys))
		for _, k := range keys {
			out = append(out, kv{k, m[k]})
		}
		return out
	}
	return json.Marshal(struct {
		Pages       int  `json:"pages"`
		Tags        []kv `json:"tags,omitempty"`
		Keywords    []kv `json:"keywords,omitempty"`
		URLPatterns []kv `json:"urlPatterns,omitempty"`
	}{s.Pages, sorted(s.Tags), sorted(s.Keywords), sorted(s.URLPatterns)})
}

func oracleUnmarshal(data []byte) (*Signature, error) {
	type kv struct {
		K string `json:"k"`
		N int    `json:"n"`
	}
	var raw struct {
		Pages       int  `json:"pages"`
		Tags        []kv `json:"tags"`
		Keywords    []kv `json:"keywords"`
		URLPatterns []kv `json:"urlPatterns"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	toMap := func(pairs []kv) map[string]int {
		m := make(map[string]int, len(pairs))
		for _, p := range pairs {
			m[p.K] = p.N
		}
		return m
	}
	s := &Signature{
		Pages:       raw.Pages,
		Tags:        toMap(raw.Tags),
		Keywords:    toMap(raw.Keywords),
		URLPatterns: toMap(raw.URLPatterns),
	}
	s.ensureTotals()
	return s, s.Validate()
}

// benchSizedSignature is shaped like a served-path benchmark
// repository's routing signature: 1024 pages, a few hundred tag paths,
// about 2,200 keywords, a handful of URL patterns.
func benchSizedSignature() *Signature {
	rng := rand.New(rand.NewSource(7))
	s := &Signature{Pages: 1024, Tags: map[string]int{}, Keywords: map[string]int{}, URLPatterns: map[string]int{}}
	for i := 0; i < 300; i++ {
		s.Tags[fmt.Sprintf("HTML/BODY/DIV/TABLE/TR[%d]/TD[%d]", i/7, i%7)] = 1 + rng.Intn(1024)
	}
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for len(s.Keywords) < 2200 {
		var b strings.Builder
		for n := 3 + rng.Intn(8); n > 0; n-- {
			b.WriteByte(letters[rng.Intn(len(letters))])
		}
		s.Keywords[b.String()] = 1 + rng.Intn(1024)
	}
	s.URLPatterns["/title/tt#"] = 1000
	s.URLPatterns["/title/tt#/reviews"] = 24
	s.ensureTotals()
	return s
}

// signatureOf builds a signature from fuzz input: keys, one per line,
// dealt round-robin to tags, keywords and URL patterns, each counting
// the byte at its index in counts.
func signatureOf(pages int, keys string, counts []byte) *Signature {
	s := &Signature{Pages: pages, Tags: map[string]int{}, Keywords: map[string]int{}, URLPatterns: map[string]int{}}
	maps := []map[string]int{s.Tags, s.Keywords, s.URLPatterns}
	if keys == "" {
		return s
	}
	for i, k := range strings.Split(keys, "\n") {
		n := i
		if i < len(counts) {
			n = int(counts[i]) - 64
		}
		maps[i%3][k] = n
	}
	return s
}

// FuzzSignatureEncode: AppendJSON writes the oracle's bytes for any
// signature — keys with <, > and &, U+2028, invalid UTF-8, empty maps,
// negative counts.
func FuzzSignatureEncode(f *testing.F) {
	bench := benchSizedSignature()
	var keys []string
	var counts []byte
	for _, m := range []map[string]int{bench.Tags, bench.Keywords, bench.URLPatterns} {
		for k, n := range m {
			keys = append(keys, k)
			counts = append(counts, byte(n))
		}
	}
	f.Add(1024, strings.Join(keys, "\n"), counts)
	f.Add(3, "HTML\n<a&b>\n/x/\u2028y\n\xff\xfe\n\"quoted\\\"\n\t\x00", []byte{65, 66, 67, 0, 255})
	f.Add(0, "", []byte(nil))
	f.Add(-1, "only-tags", []byte{64})
	f.Fuzz(func(t *testing.T, pages int, keys string, counts []byte) {
		s := signatureOf(pages, keys, counts)
		want, err := oracleMarshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON:\n got %s\nwant %s", got, want)
		}
		if got, err := json.Marshal(s); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("json.Marshal: %v\n got %s\nwant %s", err, got, want)
		}
	})
}

// signatureDecodeSeeds are hand-edited shapes of the JSON form: each
// must decode to the oracle's value or fail with its error text.
var signatureDecodeSeeds = []string{
	`{"pages":2,"tags":[{"k":"HTML","n":2}],"keywords":[{"k":"a","n":1},{"k":"b","n":2}],"urlPatterns":[{"k":"/x","n":2}]}`,
	` { "keywords" : [ { "k" : "b" , "n" : 1 } ] , "pages" : 1 } `,
	`{"pages":1,"keywords":[{"k":"b","n":1},{"k":"a","n":1}]}`,
	`{"pages":1,"keywords":[{"k":"a","n":1},{"k":"a","n":0}]}`,
	`{"pages":1,"keywords":[{"n":1,"k":"a"}]}`,
	`{"pages":1,"Keywords":[{"k":"a","n":1}]}`,
	`{"pages":1,"keywords":[{"K":"a","N":1}]}`,
	`{"pages":1,"pages":2}`,
	`{"pages":1,"extra":{"x":[1,2]},"tags":[]}`,
	`{"pages":1,"tags":null}`,
	`null`,
	`{}`,
	`{"pages":1.5}`,
	`{"pages":1e2}`,
	`{"pages":-0}`,
	`{"pages":99999999999999999999}`,
	`{"pages":012}`,
	`{"pages":"1"}`,
	`{"pages":1,"keywords":[{"k":"\u003ca\u0026b\u003e \ud83d\ude00 \u2028","n":1}]}`,
	`{"pages":1,"keywords":[{"k":"\ud800","n":1}]}`,
	`{"pages":1,"keywords":[{"k":"caf` + "\xe9" + `","n":1}]}`,
	`{"pages":1,"keywords":[{"k":"tab` + "\t" + `","n":1}]}`,
	`{"pages":1,"keywords":[{"k":"a\/b\\c\"d\n","n":1}]}`,
	`{"pages":1,"keywords":[{"k":"a","n":2}]}`,
	`{"pages":1,"keywords":[{"k":"z","n":2},{"k":"a","n":3}]}`,
	`{"pages":-1}`,
	`{"pages":1}x`,
	`{"pages":1,}`,
	`{"pages":1,"tags":[{"k":"a","n":1},]}`,
	`[]`,
	``,
}

// FuzzSignatureDecode: UnmarshalJSON gives the oracle's value or its
// error text for any bytes, and the decoded signature re-encodes to the
// oracle's bytes (the key order a decode keeps must be the sorted one).
func FuzzSignatureDecode(f *testing.F) {
	canonical, err := oracleMarshal(benchSizedSignature())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canonical)
	var indented bytes.Buffer
	if err := json.Indent(&indented, canonical, "", "  "); err != nil {
		f.Fatal(err)
	}
	f.Add(indented.Bytes())
	for _, s := range signatureDecodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := oracleUnmarshal(data)
		var got Signature
		gotErr := got.UnmarshalJSON(data)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("UnmarshalJSON(%q): err %v, oracle err %v", data, gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("UnmarshalJSON(%q): err %q, oracle err %q", data, gotErr, wantErr)
			}
			return
		}
		got.sorted = [3][]string{}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("UnmarshalJSON(%q) = %+v, oracle %+v", data, got, *want)
		}
		enc, err := oracleMarshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var again Signature
		if err := again.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if out := again.AppendJSON(nil); !bytes.Equal(out, enc) {
			t.Fatalf("re-encoding of %q:\n got %s\nwant %s", data, out, enc)
		}
	})
}

// BenchmarkSignatureJSON is the signature codec on a bench-sized
// signature, against the reflective route it replaced.
func BenchmarkSignatureJSON(b *testing.B) {
	sig := benchSizedSignature()
	data := sig.AppendJSON(nil)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sig.AppendJSON(nil)
		}
	})
	b.Run("encode-decoded", func(b *testing.B) {
		// A decoded signature keeps its key order: the boot path's case.
		var decoded Signature
		if err := decoded.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			decoded.AppendJSON(nil)
		}
	})
	b.Run("encode-reflect", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := oracleMarshal(sig); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var s Signature
			if err := s.UnmarshalJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-reflect", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := oracleUnmarshal(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
