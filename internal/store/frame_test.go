package store

import (
	"bytes"
	"encoding/json"
	"testing"
)

// htmlRec encodes itself; its AppendJSON is json.Marshal's output for
// the one-field struct, so Append must frame it as if marshalled.
type htmlRec struct {
	HTML string `json:"html"`
}

func (r htmlRec) AppendJSON(dst []byte) []byte {
	b, _ := json.Marshal(struct {
		HTML string `json:"html"`
	}{r.HTML})
	return append(dst, b...)
}

// TestAppendRecordMatchesEncoder is the differential check of the
// hand-built envelope: for every payload shape and record type name,
// appendRecord emits the bytes json.Marshal(Record{...}) would.
func TestAppendRecordMatchesEncoder(t *testing.T) {
	payloads := []any{
		testRec{N: 1, S: "plain"},
		testRec{N: -7, S: "<script>&\"quotes\"\u2028\u2029\x00\xff</script>"},
		map[string][]string{"b": {"2"}, "a": {"1", "<&>"}},
		json.RawMessage(`{"pre":"encoded"}`),
		[]int{}, nil, "just a string", 3.25,
		htmlRec{HTML: "<p class=\"x\">Tom & Jerry\u2028</p>"},
	}
	types := []string{"induct.capture", "repo.stage", "monitor.schedule.remove", "x_y-Z9"}
	for _, typ := range types {
		for i, data := range payloads {
			payload, err := json.Marshal(data)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(Record{V: RecordVersion, Seq: uint64(1000 + i), Type: typ, Data: payload})
			if err != nil {
				t.Fatal(err)
			}
			got := appendRecord([]byte("prefix"), uint64(1000+i), typ, payload)
			if !bytes.Equal(got[len("prefix"):], want) {
				t.Fatalf("type %q payload %d:\n got %s\nwant %s", typ, i, got[len("prefix"):], want)
			}
		}
	}
}

// TestAppendUsesJSONAppender: a JSONAppender payload lands in the WAL
// exactly as a json.Marshal-ed one would, and replays.
func TestAppendUsesJSONAppender(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, FsyncNever)
	rec := htmlRec{HTML: "<b>x & y</b>"}
	if err := s.Append("html", rec); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, s)
	s.Close()
	want, _ := json.Marshal(struct {
		HTML string `json:"html"`
	}{rec.HTML})
	if len(recs) != 1 || !bytes.Equal(recs[0].Data, want) {
		t.Fatalf("replayed %+v, want data %s", recs, want)
	}
}

// TestAppendRejectsNonIdentifierType: the envelope writes type names
// unescaped, so Append refuses any name JSON would have to escape.
func TestAppendRejectsNonIdentifierType(t *testing.T) {
	s := openTest(t, t.TempDir(), FsyncNever)
	defer s.Close()
	for _, typ := range []string{`we"ird`, "<tag>", "caf\u00e9", "a b"} {
		if err := s.Append(typ, testRec{N: 1}); err == nil {
			t.Fatalf("Append accepted record type %q", typ)
		}
	}
	if err := s.Append("induct.capture", testRec{N: 2}); err != nil {
		t.Fatal(err)
	}
}
