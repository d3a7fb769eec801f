package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/induct"
	"repro/internal/monitor"
	"repro/internal/rule"
	"repro/internal/store"
)

// walFrames splits a WAL file into its record frames (header stripped).
func walFrames(t *testing.T, path string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for len(raw) > 0 {
		n := binary.LittleEndian.Uint32(raw[0:4])
		out = append(out, raw[8:8+n])
		raw = raw[8+n:]
	}
	return out
}

// TestWALFramesMatchEncoder is the differential check of the store's
// hand-built envelope on every record type the daemon writes: each
// frame on disk is byte-identical to json.Marshal of the store.Record
// envelope around json.Marshal of the payload — the encoding the WAL
// used before, which older data directories hold.
func TestWALFramesMatchEncoder(t *testing.T) {
	repoJSON, err := json.Marshal(rule.NewRepository("movies"))
	if err != nil {
		t.Fatal(err)
	}
	sig := cluster.NewSignature()
	sig.Add(cluster.FeaturesFromParts("http://site.example/title/tt1/",
		map[string]struct{}{"HTML": {}, "HTML/BODY/H1": {}}, map[string]struct{}{"runtime": {}}))
	at := time.Date(2026, 3, 4, 5, 6, 7, 8, time.UTC)
	sched := &monitor.ScheduleState{Repo: "movies", URL: "http://site.example/?a=1&b=<2>",
		Interval: time.Minute, NextFire: at, DriftRate: 0.125, Recrawls: 3, LastOutcome: "changed",
		Seen: map[string]string{"http://site.example/1": "f00d"}}
	records := []struct {
		typ  string
		data any
	}{
		{recRepoStage, repoRecord{Name: "movies", Version: 2, Active: true, Repo: repoJSON}},
		{recRepoPromote, promoteRecord{Name: "movies", Version: 2}},
		{recRepoRemove, removeRecord{Name: "movies"}},
		{recRouterSig, routerRecord{Name: "movies", Sig: sig}},
		{recInductCapture, captureRecord{URI: "http://site.example/q/1",
			HTML:  "<html><body><p class=\"x\">Tom & Jerry   \xff\x01</p><script>a<b</script></body></html>",
			Trace: "cafe0123"}},
		{recInductCapture, captureRecord{URI: "request:00ff", HTML: ""}},
		{recInductJob, &induct.Job{ID: "j1", Bucket: "b1", State: induct.JobStaged, Cluster: "quotes",
			Pages: 8, Sample: 4, Components: map[string]string{"price": "recorded(3)"}, Version: 1,
			Created: at, Updated: at, Started: at, Trace: "beef"}},
		{recInductExamples, map[string]map[string][]string{"http://x/1": {"price": {"<1&2>"}}}},
		{recMonSchedule, sched},
		{recMonSchedRemove, scheduleRemoveRecord{Repo: "movies"}},
		{recMonRecrawl, &monitor.RecrawlRecord{Schedule: *sched, FeedSeq: 9, Changes: []monitor.Change{{
			Seq: 9, At: at, Repo: "movies", URI: "http://site.example/1", Kind: "changed",
			Fingerprint: "f00d", Record: map[string][]string{"title": {"A & B"}}}}}},
	}

	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := st.Append(r.typ, r.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	frames := walFrames(t, filepath.Join(dir, "wal.log"))
	if len(frames) != len(records) {
		t.Fatalf("%d frames on disk, want %d", len(frames), len(records))
	}
	for i, r := range records {
		payload, err := json.Marshal(r.data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(store.Record{V: store.RecordVersion, Seq: uint64(i + 1), Type: r.typ, Data: payload})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frames[i], want) {
			t.Errorf("%s record:\n got %s\nwant %s", r.typ, frames[i], want)
		}
	}
}
