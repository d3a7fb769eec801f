package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/textutil"
)

// RecordVersion is the current WAL record format version. Replay skips
// (with a warning) any record carrying a version this binary does not
// know, so mixed-version data directories degrade instead of failing.
const RecordVersion = 1

// maxRecordBytes bounds a single WAL record. A length prefix beyond it
// is treated as tail corruption, not as an allocation request — the
// prefix is the first thing a torn or overwritten tail garbles.
const maxRecordBytes = 64 << 20

// frameHeaderLen is the per-record framing overhead: 4-byte length +
// 4-byte CRC32.
const frameHeaderLen = 8

// WAL file names inside the data directory. walPrev (and walPrev2, for
// the doubly-unlucky case) exist only between a compaction's rotate
// and cleanup steps; finding one at Open means a compaction crashed
// and its records must be replayed before the live WAL's.
const (
	walName     = "wal.log"
	walPrevName = "wal.prev.log"
	walPrev2    = "wal.prev2.log"
	snapName    = "snapshot.json"
)

// Fsync policies.
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncNever    = "never"
)

// Record is the versioned envelope every WAL frame carries. Data is an
// opaque payload owned by the caller's record type.
type Record struct {
	V    int             `json:"v"`
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// Options configures Open. Dir is required; everything else defaults.
type Options struct {
	// Dir is the data directory (created if absent).
	Dir string
	// Fsync is the durability policy: FsyncAlways, FsyncInterval
	// (default) or FsyncNever.
	Fsync string
	// Interval paces the background fsync under FsyncInterval
	// (default 100ms).
	Interval time.Duration
	// Logger receives torn-tail warnings and replay reports. Nil
	// discards them.
	Logger *slog.Logger
}

// Metrics is a point-in-time view of the store's counters, shaped for
// the service /metrics snapshot (the extractd_store_* families).
type Metrics struct {
	// WALBytes is the live WAL's current size.
	WALBytes int64 `json:"walBytes"`
	// WALRecords counts records appended by this process.
	WALRecords int64 `json:"walRecords"`
	// Fsyncs counts fsync calls issued on the WAL.
	Fsyncs int64 `json:"fsyncs"`
	// TornTails counts truncated torn tails found at Open.
	TornTails int64 `json:"tornTails"`
	// ReplayRecords counts records delivered by Replay at boot.
	ReplayRecords int64 `json:"replayRecords"`
	// ReplayDurationSeconds is how long the boot replay took.
	ReplayDurationSeconds float64 `json:"replayDurationSeconds"`
	// SnapshotAgeSeconds is the age of snapshot.json (0 when none).
	SnapshotAgeSeconds float64 `json:"snapshotAgeSeconds"`
	// Snapshots counts compactions performed by this process.
	Snapshots int64 `json:"snapshots"`
}

// snapshotFile is the on-disk envelope of snapshot.json.
type snapshotFile struct {
	V     int             `json:"v"`
	Seq   uint64          `json:"seq"`
	Saved time.Time       `json:"saved"`
	State json.RawMessage `json:"state"`
}

// Store is an append-only WAL plus snapshot pair under one data
// directory. All methods are safe for concurrent use.
type Store struct {
	dir      string
	policy   string
	interval time.Duration
	log      *slog.Logger

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	seq      uint64
	walBytes int64
	closed   bool
	frame    []byte // reused frame buffer (header + envelope), guarded by mu
	// boot is snapshot.json as Open read it, kept for the first
	// LoadSnapshot (nil once used, or after a Compact); guarded by mu.
	boot *snapshotFile

	// Group commit (FsyncAlways): appenders bump wantSeq and wait on
	// cond until the syncer goroutine's fsync covers their record.
	syncMu    sync.Mutex
	cond      *sync.Cond
	wantSeq   uint64
	syncedSeq uint64
	syncErr   error
	stop      chan struct{}
	done      sync.WaitGroup

	records   atomic.Int64
	fsyncs    atomic.Int64
	tornTails atomic.Int64
	replayed  atomic.Int64
	replayNS  atomic.Int64
	snaps     atomic.Int64
	snapTime  atomic.Int64 // unix nanos of the newest snapshot, 0 = none
}

// Open creates or reopens a data directory: the WAL (and any rotated
// predecessor a crashed compaction left behind) is scanned, torn tails
// are truncated with a warning, and the sequence counter resumes past
// everything on disk. Frame-level corruption is always treated as the
// tail and truncated — Open only fails on filesystem-level errors, so
// a crashed daemon can always restart over its own data directory.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: Dir is required")
	}
	switch opts.Fsync {
	case "":
		opts.Fsync = FsyncInterval
	case FsyncAlways, FsyncInterval, FsyncNever:
	default:
		return nil, fmt.Errorf("store: unknown fsync policy %q (want %s, %s or %s)",
			opts.Fsync, FsyncAlways, FsyncInterval, FsyncNever)
	}
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      opts.Dir,
		policy:   opts.Fsync,
		interval: opts.Interval,
		log:      opts.Logger,
		stop:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.syncMu)

	// Resume the sequence counter from the snapshot's high-water mark.
	if snap, ok, err := s.readSnapshotFile(); err != nil {
		return nil, err
	} else if ok {
		s.seq = snap.Seq
		s.snapTime.Store(snap.Saved.UnixNano())
		s.boot = snap
	}

	// Repair and index every log, rotated ones included.
	for _, name := range []string{walPrevName, walPrev2, walName} {
		maxSeq, size, err := s.repairLog(filepath.Join(s.dir, name))
		if err != nil {
			return nil, err
		}
		if maxSeq > s.seq {
			s.seq = maxSeq
		}
		if name == walName {
			s.walBytes = size
		}
	}

	f, err := os.OpenFile(filepath.Join(s.dir, walName),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.f = f
	s.w = bufio.NewWriter(f)

	switch s.policy {
	case FsyncAlways:
		s.done.Add(1)
		go s.groupSyncer()
	case FsyncInterval:
		s.done.Add(1)
		go s.intervalSyncer()
	}
	return s, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// repairLog scans one WAL file, truncating at the first short or
// checksum-failing frame, and returns the highest record seq seen plus
// the surviving size. A missing file is fine (0, 0, nil).
func (s *Store) repairLog(path string) (maxSeq uint64, size int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()

	r := bufio.NewReader(f)
	var good int64 // offset past the last intact frame
	var header [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if err != io.EOF {
				s.truncateTorn(path, f, good, "short frame header")
			}
			break
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if n == 0 || n > maxRecordBytes {
			s.truncateTorn(path, f, good, "implausible frame length")
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			s.truncateTorn(path, f, good, "short frame payload")
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			s.truncateTorn(path, f, good, "checksum mismatch")
			break
		}
		if rec, err := decodeRecord(payload); err == nil && rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		good += frameHeaderLen + int64(n)
	}
	return maxSeq, good, nil
}

// truncateTorn cuts a log at the last intact frame and warns — the
// torn tail of a crashed append is expected damage, not a reason to
// refuse the directory.
func (s *Store) truncateTorn(path string, f *os.File, at int64, why string) {
	s.tornTails.Add(1)
	s.log.Warn("store.torn-tail",
		"file", filepath.Base(path), "truncatedAt", at, "reason", why)
	if err := f.Truncate(at); err != nil {
		s.log.Warn("store.truncate-failed", "file", filepath.Base(path),
			"error", err.Error())
	}
}

// JSONAppender is a record payload that encodes itself: AppendJSON must
// append exactly the bytes json.Marshal produces for the value. Append
// uses it in place of json.Marshal, so large payloads (captured pages)
// take one encoding pass instead of encoding/json's reflection walk.
type JSONAppender interface {
	AppendJSON(dst []byte) []byte
}

// maxReusedFrame caps the frame buffer kept between appends: a rare huge
// record must not pin its buffer for the life of the store.
const maxReusedFrame = 1 << 20

// Append journals one record: the payload is marshalled, framed,
// written through to the OS, and — under the "always" policy — fsynced
// (group-committed with concurrent appenders) before Append returns.
// Record types must be identifiers ([A-Za-z0-9._-]).
func (s *Store) Append(typ string, data any) error {
	if !validType(typ) {
		return fmt.Errorf("store: record type %q is not an identifier", typ)
	}
	var payload []byte
	if a, ok := data.(JSONAppender); ok {
		payload = a.AppendJSON(nil)
	} else {
		var err error
		if payload, err = json.Marshal(data); err != nil {
			return fmt.Errorf("store: marshalling %s record: %w", typ, err)
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	s.seq++
	buf := appendRecord(append(s.frame[:0], make([]byte, frameHeaderLen)...), s.seq, typ, payload)
	frame := buf[frameHeaderLen:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(frame)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(frame))
	_, err := s.w.Write(buf)
	if err == nil {
		// Write through to the OS: a killed process loses nothing even
		// without fsync — the page cache outlives the process.
		err = s.w.Flush()
	}
	if cap(buf) <= maxReusedFrame {
		s.frame = buf
	}
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: appending %s record: %w", typ, err)
	}
	seq := s.seq
	s.walBytes += int64(len(buf))
	s.records.Add(1)
	s.mu.Unlock()

	if s.policy == FsyncAlways {
		return s.waitSynced(seq)
	}
	return nil
}

// appendRecord appends the JSON envelope of one record around its
// already-encoded payload — byte-identical to json.Marshal(Record{V:
// RecordVersion, Seq: seq, Type: typ, Data: payload}) for identifier
// types (validType) and the compact, HTML-escaped payloads json.Marshal
// and JSONAppender produce, without re-scanning the payload.
func appendRecord(dst []byte, seq uint64, typ string, payload []byte) []byte {
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, RecordVersion, 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, `,"type":`...)
	dst = append(append(append(dst, '"'), typ...), '"')
	dst = append(dst, `,"data":`...)
	dst = append(dst, payload...)
	return append(dst, '}')
}

// appendSnapshot appends snapshot.json's envelope around the encoded
// state — byte-identical to json.Marshal(snapshotFile{...}) for the
// compact, HTML-escaped state json.Marshal and the callers of Compact
// produce, without re-scanning the state.
func appendSnapshot(dst []byte, seq uint64, saved time.Time, state []byte) ([]byte, error) {
	at, err := saved.MarshalJSON()
	if err != nil {
		return nil, err
	}
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, RecordVersion, 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, `,"saved":`...)
	dst = append(dst, at...)
	dst = append(dst, `,"state":`...)
	dst = append(dst, state...)
	return append(dst, '}'), nil
}

// decodeRecord decodes one frame's payload, as json.Unmarshal into a
// Record would. The envelope appendRecord writes (with any whitespace)
// reads in one pass that checks Data's syntax without decoding it;
// any other envelope goes to json.Unmarshal.
func decodeRecord(payload []byte) (Record, error) {
	var rec Record
	var r textutil.JSONReader
	r.Reset(payload)
	r.Byte('{')
	r.Key("v")
	rec.V = r.Int()
	r.Byte(',')
	r.Key("seq")
	seq := r.Int()
	r.Byte(',')
	r.Key("type")
	rec.Type = r.String()
	r.Byte(',')
	r.Key("data")
	r.Peek()
	start := r.Pos()
	r.Skip()
	rec.Data = payload[start:r.Pos()]
	r.Byte('}')
	r.End()
	if r.OK() && seq >= 0 {
		rec.Seq = uint64(seq)
		return rec, nil
	}
	rec = Record{}
	err := json.Unmarshal(payload, &rec)
	return rec, err
}

// validType reports whether a record type name is an identifier
// ([A-Za-z0-9._-]): JSON quotes such a name as it is, so appendRecord
// writes it without escaping.
func validType(typ string) bool {
	for i := 0; i < len(typ); i++ {
		c := typ[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '.' || c == '-' || c == '_') {
			return false
		}
	}
	return true
}

// waitSynced parks until the group-commit syncer's fsync covers seq.
func (s *Store) waitSynced(seq uint64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if seq > s.wantSeq {
		s.wantSeq = seq
		s.cond.Broadcast()
	}
	for s.syncedSeq < seq && s.syncErr == nil {
		s.cond.Wait()
	}
	return s.syncErr
}

// groupSyncer is the FsyncAlways batcher: one goroutine fsyncs on
// behalf of every parked appender, so a burst of concurrent appends
// costs one disk flush.
func (s *Store) groupSyncer() {
	defer s.done.Done()
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	for {
		for s.wantSeq <= s.syncedSeq && s.syncErr == nil {
			select {
			case <-s.stop:
				return
			default:
			}
			s.cond.Wait()
		}
		if s.syncErr != nil {
			return
		}
		target := s.wantSeq
		s.syncMu.Unlock()
		err := s.syncFile()
		s.syncMu.Lock()
		if err != nil {
			s.syncErr = err
		} else {
			s.syncedSeq = target
		}
		s.cond.Broadcast()
	}
}

// intervalSyncer fsyncs dirty WAL state every interval.
func (s *Store) intervalSyncer() {
	defer s.done.Done()
	t := time.NewTicker(s.interval)
	defer t.Stop()
	var lastSeq uint64
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			cur := s.seq
			s.mu.Unlock()
			if cur == lastSeq {
				continue
			}
			if err := s.syncFile(); err != nil {
				s.log.Warn("store.fsync-failed", "error", err.Error())
				continue
			}
			lastSeq = cur
		}
	}
}

// syncFile fsyncs the current WAL fd.
func (s *Store) syncFile() error {
	s.mu.Lock()
	f := s.f
	s.mu.Unlock()
	if f == nil {
		return nil
	}
	s.fsyncs.Add(1)
	return f.Sync()
}

// Replay streams every WAL record — rotated logs first, then the live
// one — through fn in append order. Records with an unknown format
// version are skipped with a warning; fn's own error aborts the
// replay. Call after LoadSnapshot and before attaching journal hooks.
func (s *Store) Replay(fn func(Record) error) error {
	start := time.Now()
	n := int64(0)
	for _, name := range []string{walPrevName, walPrev2, walName} {
		if err := s.replayFile(filepath.Join(s.dir, name), fn, &n); err != nil {
			return err
		}
	}
	s.replayed.Store(n)
	s.replayNS.Store(int64(time.Since(start)))
	if n > 0 {
		s.log.Info("store.replayed", "records", n,
			"duration", time.Since(start).String())
	}
	return nil
}

func (s *Store) replayFile(path string, fn func(Record) error, n *int64) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var header [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			// Open already truncated torn tails; a short read here is EOF.
			return nil
		}
		size := binary.LittleEndian.Uint32(header[0:4])
		if size == 0 || size > maxRecordBytes {
			return nil
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			s.log.Warn("store.replay.bad-record", "error", err.Error())
			continue
		}
		if rec.V != RecordVersion {
			s.log.Warn("store.replay.unknown-version",
				"v", rec.V, "seq", rec.Seq, "type", rec.Type)
			continue
		}
		*n++
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// LoadSnapshot unmarshals snapshot.json's state into into, reporting
// whether a snapshot existed. The first call after Open decodes the
// snapshot Open already read instead of reading the file again.
func (s *Store) LoadSnapshot(into any) (bool, error) {
	s.mu.Lock()
	snap := s.boot
	s.boot = nil
	s.mu.Unlock()
	if snap == nil {
		var ok bool
		var err error
		if snap, ok, err = s.readSnapshotFile(); err != nil || !ok {
			return ok, err
		}
	}
	if err := json.Unmarshal(snap.State, into); err != nil {
		return true, fmt.Errorf("store: decoding snapshot state: %w", err)
	}
	return true, nil
}

func (s *Store) readSnapshotFile() (*snapshotFile, bool, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, snapName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, false, fmt.Errorf("store: decoding %s: %w", snapName, err)
	}
	return &snap, true, nil
}

// Compact bounds replay time: rotate the live WAL aside, capture the
// caller's full state, write it as the new snapshot (atomically), and
// delete the rotated WAL. Crash-safe at every step — boot replays
// snapshot + rotated + live WALs in order, and the service's record
// types replay as idempotent upserts, so the capture racing appends to
// the fresh WAL cannot lose or double-apply a mutation.
//
// capture runs outside the store's locks; it must itself lock whatever
// subsystems it snapshots (the lock order is always subsystem → store).
// A json.RawMessage state is taken as already encoded: it must be
// compact JSON as json.Marshal writes it, HTML-escaped.
func (s *Store) Compact(capture func() (any, error)) error {
	// Rotate: every record so far moves aside; the capture below is
	// guaranteed to reflect all of them (they happened before it).
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	s.boot = nil // the snapshot written below supersedes it
	if err := s.w.Flush(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: %w", err)
	}
	s.fsyncs.Add(1)
	s.f.Close()
	live := filepath.Join(s.dir, walName)
	rotated := filepath.Join(s.dir, walPrevName)
	if _, err := os.Stat(rotated); err == nil {
		// A crashed compaction left wal.prev.log behind (its records were
		// replayed at boot and are covered by the capture below); park the
		// live WAL under the second rotation name instead of clobbering it.
		rotated = filepath.Join(s.dir, walPrev2)
	}
	if err := os.Rename(live, rotated); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: rotating wal: %w", err)
	}
	f, err := os.OpenFile(live, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: %w", err)
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	s.walBytes = 0
	seq := s.seq
	s.mu.Unlock()

	state, err := capture()
	if err != nil {
		return fmt.Errorf("store: capturing snapshot state: %w", err)
	}
	stateJSON, ok := state.(json.RawMessage)
	if !ok {
		if stateJSON, err = json.Marshal(state); err != nil {
			return fmt.Errorf("store: marshalling snapshot state: %w", err)
		}
	}
	now := time.Now()
	data, err := appendSnapshot(nil, seq, now, stateJSON)
	if err != nil {
		return fmt.Errorf("store: marshalling snapshot: %w", err)
	}
	if err := s.writeFileAtomic(snapName, data); err != nil {
		return err
	}
	s.snapTime.Store(now.UnixNano())
	s.snaps.Add(1)

	// The snapshot covers everything in the rotated WAL(s): drop them.
	for _, name := range []string{walPrevName, walPrev2} {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil &&
			!errors.Is(err, os.ErrNotExist) {
			s.log.Warn("store.cleanup-failed", "file", name, "error", err.Error())
		}
	}
	s.syncDir()
	s.log.Info("store.compacted", "seq", seq, "snapshotBytes", len(data))
	return nil
}

// writeFileAtomic writes name under the data dir via temp file + fsync
// + rename + directory fsync.
func (s *Store) writeFileAtomic(name string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.syncDir()
	return nil
}

// syncDir fsyncs the data directory so renames and removals are
// durable. Best-effort: some filesystems refuse directory fsync.
func (s *Store) syncDir() {
	d, err := os.Open(s.dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Sync forces an fsync of the live WAL regardless of policy.
func (s *Store) Sync() error { return s.syncFile() }

// Metrics snapshots the store's counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	walBytes := s.walBytes
	s.mu.Unlock()
	m := Metrics{
		WALBytes:              walBytes,
		WALRecords:            s.records.Load(),
		Fsyncs:                s.fsyncs.Load(),
		TornTails:             s.tornTails.Load(),
		ReplayRecords:         s.replayed.Load(),
		ReplayDurationSeconds: time.Duration(s.replayNS.Load()).Seconds(),
		Snapshots:             s.snaps.Load(),
	}
	if at := s.snapTime.Load(); at > 0 {
		m.SnapshotAgeSeconds = time.Since(time.Unix(0, at)).Seconds()
	}
	return m
}

// Close flushes, fsyncs and closes the WAL and stops the background
// syncer. Further Appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.w.Flush()
	if serr := s.f.Sync(); err == nil {
		err = serr
	}
	s.fsyncs.Add(1)
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.mu.Unlock()

	close(s.stop)
	s.syncMu.Lock()
	if s.syncErr == nil {
		s.syncErr = errors.New("store: closed")
	}
	s.syncedSeq = s.wantSeq
	s.cond.Broadcast()
	s.syncMu.Unlock()
	s.done.Wait()
	return err
}
