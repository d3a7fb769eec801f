package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openTest(t *testing.T, dir string, policy string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, Fsync: policy})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

type testRec struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func collect(t *testing.T, s *Store) []Record {
	t.Helper()
	var out []Record
	if err := s.Replay(func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, FsyncNever)
	for i := 1; i <= 5; i++ {
		if err := s.Append("test", testRec{N: i, S: "v"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, FsyncNever)
	defer s2.Close()
	recs := collect(t, s2)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.V != RecordVersion || r.Type != "test" {
			t.Fatalf("record %d: envelope %+v", i, r)
		}
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d, want %d", i, r.Seq, i+1)
		}
		var tr testRec
		if err := json.Unmarshal(r.Data, &tr); err != nil || tr.N != i+1 {
			t.Fatalf("record %d: data %s (err %v)", i, r.Data, err)
		}
	}

	// The sequence counter resumes past the replayed records.
	if err := s2.Append("test", testRec{N: 6}); err != nil {
		t.Fatal(err)
	}
	recs = collect(t, s2)
	if got := recs[len(recs)-1].Seq; got != 6 {
		t.Fatalf("resumed seq = %d, want 6", got)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, FsyncNever)
	for i := 1; i <= 3; i++ {
		if err := s.Append("test", testRec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Tear the final record: chop the file mid-frame.
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, FsyncNever)
	if got := s2.Metrics().TornTails; got != 1 {
		t.Fatalf("TornTails = %d, want 1", got)
	}
	recs := collect(t, s2)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records after tear, want 2 (nothing before the tear lost)", len(recs))
	}
	// The log stays appendable and the new record lands after the
	// survivors.
	if err := s2.Append("test", testRec{N: 9}); err != nil {
		t.Fatal(err)
	}
	recs = collect(t, s2)
	if len(recs) != 3 {
		t.Fatalf("post-repair append: %d records, want 3", len(recs))
	}
	s2.Close()
}

func TestCorruptChecksumTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, FsyncNever)
	for i := 1; i <= 3; i++ {
		if err := s.Append("test", testRec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Flip a byte inside the last record's payload.
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, FsyncNever)
	defer s2.Close()
	if recs := collect(t, s2); len(recs) != 2 {
		t.Fatalf("replayed %d records after corruption, want 2", len(recs))
	}
}

func TestUnknownRecordVersionSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, FsyncNever)
	if err := s.Append("test", testRec{N: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Hand-frame a record from the future.
	payload, _ := json.Marshal(Record{V: RecordVersion + 1, Seq: 99, Type: "future"})
	var header [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(header[:])
	f.Write(payload)
	f.Close()

	s2 := openTest(t, dir, FsyncNever)
	defer s2.Close()
	recs := collect(t, s2)
	if len(recs) != 1 || recs[0].Type != "test" {
		t.Fatalf("future-version record not skipped: %+v", recs)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, FsyncNever)
	for i := 1; i <= 4; i++ {
		if err := s.Append("test", testRec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	state := map[string]int{"applied": 4}
	if err := s.Compact(func() (any, error) { return state, nil }); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Snapshots != 1 || m.WALBytes != 0 {
		t.Fatalf("post-compact metrics: %+v", m)
	}
	if _, err := os.Stat(filepath.Join(dir, walPrevName)); !os.IsNotExist(err) {
		t.Fatal("wal.prev.log not cleaned up after compaction")
	}
	// Records after the snapshot land in the fresh WAL.
	if err := s.Append("test", testRec{N: 5}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTest(t, dir, FsyncNever)
	defer s2.Close()
	var got map[string]int
	ok, err := s2.LoadSnapshot(&got)
	if err != nil || !ok || got["applied"] != 4 {
		t.Fatalf("LoadSnapshot = %v, %v, %v", got, ok, err)
	}
	recs := collect(t, s2)
	if len(recs) != 1 || recs[0].Seq != 5 {
		t.Fatalf("post-snapshot tail = %+v, want the single seq-5 record", recs)
	}
}

// TestSnapshotReadOncePerBoot: LoadSnapshot decodes the snapshot Open
// read, so the state loads even when snapshot.json is renamed between
// the two; only a later call goes back to the file.
func TestSnapshotReadOncePerBoot(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, FsyncNever)
	if err := s.Compact(func() (any, error) { return map[string]int{"applied": 7}, nil }); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTest(t, dir, FsyncNever)
	defer s2.Close()
	if err := os.Rename(filepath.Join(dir, snapName), filepath.Join(dir, "moved.json")); err != nil {
		t.Fatal(err)
	}
	var got map[string]int
	if ok, err := s2.LoadSnapshot(&got); err != nil || !ok || got["applied"] != 7 {
		t.Fatalf("LoadSnapshot after rename = %v, %v, %v; want the state Open read", got, ok, err)
	}
	if ok, err := s2.LoadSnapshot(&got); err != nil || ok {
		t.Fatalf("second LoadSnapshot = %v, %v; want no snapshot (the file is gone)", ok, err)
	}
}

func TestCrashMidCompactionReplaysRotatedWAL(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, FsyncNever)
	for i := 1; i <= 3; i++ {
		if err := s.Append("test", testRec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Simulate a compaction that rotated the WAL and died before
	// writing the snapshot: wal.log became wal.prev.log, a fresh
	// wal.log got one more record.
	if err := os.Rename(filepath.Join(dir, walName), filepath.Join(dir, walPrevName)); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, FsyncNever)
	if err := s2.Append("test", testRec{N: 4}); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3 := openTest(t, dir, FsyncNever)
	recs := collect(t, s3)
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want all 4 (rotated + live)", len(recs))
	}
	for i, r := range recs {
		var tr testRec
		json.Unmarshal(r.Data, &tr)
		if tr.N != i+1 {
			t.Fatalf("record %d out of order: %+v", i, tr)
		}
	}
	// Compacting now must not clobber the leftover rotated WAL before
	// the new snapshot covers it.
	if err := s3.Compact(func() (any, error) { return map[string]int{"n": 4}, nil }); err != nil {
		t.Fatal(err)
	}
	if recs := collect(t, s3); len(recs) != 0 {
		t.Fatalf("WAL not empty after compaction: %+v", recs)
	}
	s3.Close()
}

func TestFsyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		s := openTest(t, t.TempDir(), FsyncAlways)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				if err := s.Append("test", testRec{N: n}); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		if got := s.Metrics().Fsyncs; got < 1 {
			t.Fatalf("Fsyncs = %d, want ≥1 under the always policy", got)
		}
		s.Close()
	})
	t.Run("interval", func(t *testing.T) {
		s, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncInterval, Interval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append("test", testRec{N: 1}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for s.Metrics().Fsyncs == 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := s.Metrics().Fsyncs; got < 1 {
			t.Fatalf("Fsyncs = %d, want ≥1 from the background ticker", got)
		}
		s.Close()
	})
	t.Run("rejects-unknown", func(t *testing.T) {
		if _, err := Open(Options{Dir: t.TempDir(), Fsync: "sometimes"}); err == nil {
			t.Fatal("Open accepted an unknown fsync policy")
		}
	})
}

func TestMetricsShape(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, FsyncNever)
	if err := s.Append("test", testRec{N: 1}); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.WALRecords != 1 || m.WALBytes <= 0 {
		t.Fatalf("metrics after one append: %+v", m)
	}
	if m.SnapshotAgeSeconds != 0 {
		t.Fatalf("SnapshotAgeSeconds = %v before any snapshot", m.SnapshotAgeSeconds)
	}
	if err := s.Compact(func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.SnapshotAgeSeconds < 0 || m.Snapshots != 1 {
		t.Fatalf("metrics after compaction: %+v", m)
	}
	s.Close()
}
