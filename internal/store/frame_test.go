package store

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
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

// TestDecodeRecordMatchesUnmarshal: decodeRecord reads every envelope —
// appendRecord's, spaced out, reordered, malformed — as json.Unmarshal
// into a Record does, value or error.
func TestDecodeRecordMatchesUnmarshal(t *testing.T) {
	payloads := []string{`{"a":1}`, `[1,"}"]`, `"str"`, `null`, `{"repo":{"signature":{"pages":1}}}`}
	var envelopes []string
	for i, p := range payloads {
		frame := string(appendRecord(nil, uint64(i*1000+7), "repo.stage", []byte(p)))
		envelopes = append(envelopes, frame,
			strings.NewReplacer(`{"v"`, "{ \"v\" ", `,"data":`, " ,\n\"data\" :\t", `,"seq"`, ` , "seq"`).Replace(frame)+" \n")
	}
	envelopes = append(envelopes,
		`{"seq":3,"v":1,"type":"x","data":{}}`,
		`{"v":1,"seq":3,"type":"x","data":{},"extra":1}`,
		`{"v":1,"seq":3,"type":"x","data":{"a":[1,}]}}`,
		`{"v":1,"seq":3,"type":"x","data":"bad\u12"}`,
		`{"v":1,"seq":-3,"type":"x","data":{}}`,
		`{"v":1,"seq":3,"type":"x","data":}`,
		`{"v":1,"seq":3,"type":"x","data":{}`,
		`{"v":1.5,"seq":3,"type":"x","data":{}}`,
		`{"v":1,"seq":3,"type":7,"data":{}}`,
		`{"V":1,"seq":3,"type":"x","data":{}}`,
		`not json`, ``)
	for _, e := range envelopes {
		var want Record
		wantErr := json.Unmarshal([]byte(e), &want)
		got, gotErr := decodeRecord([]byte(e))
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("decodeRecord(%q): err %v, json.Unmarshal err %v", e, gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("decodeRecord(%q): err %q, json.Unmarshal err %q", e, gotErr, wantErr)
			}
		case got.V != want.V || got.Seq != want.Seq || got.Type != want.Type || !bytes.Equal(got.Data, want.Data):
			t.Fatalf("decodeRecord(%q) = %+v, json.Unmarshal %+v", e, got, want)
		}
	}
}

// TestAppendSnapshotMatchesEncoder: appendSnapshot emits the bytes
// json.Marshal(snapshotFile{...}) would, so snapshot.json stays the
// same file whoever encoded its state.
func TestAppendSnapshotMatchesEncoder(t *testing.T) {
	states := []json.RawMessage{
		json.RawMessage(`{}`),
		json.RawMessage(`{"repos":[{"name":"a\u003cb","version":1,"repo":{"cluster":"a"}}]}`),
	}
	times := []time.Time{
		time.Date(2026, 3, 4, 5, 6, 7, 8, time.UTC),
		time.Date(2026, 10, 19, 16, 25, 0, 0, time.FixedZone("X", -7*3600)),
		time.Now(),
	}
	for _, state := range states {
		for i, at := range times {
			want, err := json.Marshal(snapshotFile{V: RecordVersion, Seq: uint64(i * 977), Saved: at, State: state})
			if err != nil {
				t.Fatal(err)
			}
			got, err := appendSnapshot([]byte("prefix"), uint64(i*977), at, state)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[len("prefix"):], want) {
				t.Fatalf("got  %s\nwant %s", got[len("prefix"):], want)
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
