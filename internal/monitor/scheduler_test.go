package monitor

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/resilient"
)

// normProp maps arbitrary quick-generated values into a valid
// AdaptInterval input domain.
func normProp(prevNS, minNS, maxNS int64, rate float64) (prev, min, max time.Duration, r float64) {
	min = time.Duration(minNS%int64(time.Hour)+int64(time.Hour)) % (2 * time.Hour)
	if min <= 0 {
		min = time.Minute
	}
	span := time.Duration(maxNS % int64(30*24*time.Hour))
	if span < 0 {
		span = -span
	}
	max = min + span
	prev = time.Duration(prevNS)
	r = math.Abs(rate)
	r = r - math.Floor(r) // into [0,1)
	return
}

func TestAdaptIntervalClampedProperty(t *testing.T) {
	f := func(prevNS, minNS, maxNS int64, rate float64) bool {
		prev, min, max, r := normProp(prevNS, minNS, maxNS, rate)
		got := AdaptInterval(prev, min, max, r)
		return got >= min && got <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptIntervalMonotoneInRateProperty(t *testing.T) {
	f := func(prevNS, minNS, maxNS int64, r1, r2 float64) bool {
		prev, min, max, a := normProp(prevNS, minNS, maxNS, r1)
		b := math.Abs(r2)
		b = b - math.Floor(b)
		if a > b {
			a, b = b, a
		}
		// Higher drift rate must never yield a longer interval.
		return AdaptInterval(prev, min, max, b) <= AdaptInterval(prev, min, max, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptIntervalEndpoints(t *testing.T) {
	min, max := time.Minute, 8*time.Minute
	if got := AdaptInterval(min, min, max, 1); got != min {
		t.Fatalf("rate 1 should snap to min, got %v", got)
	}
	if got := AdaptInterval(min, min, max, 0); got != 2*min {
		t.Fatalf("rate 0 from min should double, got %v", got)
	}
	if got := AdaptInterval(max, min, max, 0); got != max {
		t.Fatalf("rate 0 at max should stay at max, got %v", got)
	}
	// Overflow guard: doubling a huge interval must not wrap negative.
	huge := time.Duration(math.MaxInt64 / 2)
	if got := AdaptInterval(huge, min, huge, 0); got != huge {
		t.Fatalf("overflow-prone doubling should clamp to max, got %v", got)
	}
}

func TestJitterBoundProperty(t *testing.T) {
	f := func(intervalNS int64, frac, r float64) bool {
		interval := time.Duration(intervalNS % int64(30*24*time.Hour))
		if interval < 0 {
			interval = -interval
		}
		fr := math.Abs(frac)
		fr = fr - math.Floor(fr)
		rr := math.Abs(r)
		rr = rr - math.Floor(rr)
		j := Jitter(interval, fr, rr)
		if j < 0 {
			return false
		}
		bound := time.Duration(fr * float64(interval))
		return j <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerDefaultJitter pins the zero-value JitterFrac to
// DefaultJitterFrac: with Rand fixed at 0.5 the next fire lands at the
// adapted interval plus 5%. A negative JitterFrac turns jitter off.
func TestSchedulerDefaultJitter(t *testing.T) {
	for _, tc := range []struct {
		frac float64
		pct  time.Duration // jitter, in percent of the interval
	}{{0, 5}, {-1, 0}} {
		fake := resilient.NewFakeClock(time.Unix(1700000000, 0).UTC())
		s := New(Config{
			JitterFrac: tc.frac,
			Clock:      fake,
			Rand:       func() float64 { return 0.5 },
			Recrawl:    stubRecrawl(recordsOf("u/1", "a")),
		})
		if _, err := s.Register("site", "http://site.example/", 4*time.Minute); err != nil {
			t.Fatal(err)
		}
		s.Tick(context.Background())
		st, _ := s.Get("site")
		if st.Interval != 8*time.Minute {
			t.Fatalf("frac %v: interval = %v, want 8m", tc.frac, st.Interval)
		}
		if want := fake.Now().Add(st.Interval + st.Interval*tc.pct/100); !st.NextFire.Equal(want) {
			t.Errorf("frac %v: next fire = %v after now, want %v",
				tc.frac, st.NextFire.Sub(fake.Now()), want.Sub(fake.Now()))
		}
	}
}

// stubRecrawl returns fixed record sets per call, in order; the last
// set repeats.
func stubRecrawl(sets ...map[string]Record) RecrawlFunc {
	i := 0
	return func(ctx context.Context, sc ScheduleState) (*RecrawlResult, error) {
		set := sets[i]
		if i < len(sets)-1 {
			i++
		}
		return &RecrawlResult{Records: set}, nil
	}
}

func recordsOf(pairs ...string) map[string]Record {
	out := map[string]Record{}
	for i := 0; i+1 < len(pairs); i += 2 {
		uri, val := pairs[i], pairs[i+1]
		vals := map[string][]string{"v": {val}}
		out[uri] = Record{Fingerprint: FingerprintValues(vals), Values: vals}
	}
	return out
}

func newTestScheduler(t *testing.T, fake *resilient.FakeClock, rec RecrawlFunc) *Scheduler {
	t.Helper()
	return New(Config{
		MinInterval: time.Minute,
		MaxInterval: 8 * time.Minute,
		Budget:      1,
		Clock:       fake,
		Rand:        func() float64 { return 0 },
		Recrawl:     rec,
	})
}

func TestSchedulerDecayAndSnapBack(t *testing.T) {
	fake := resilient.NewFakeClock(time.Unix(1700000000, 0).UTC())
	s := newTestScheduler(t, fake, stubRecrawl(
		recordsOf("u/1", "a", "u/2", "b"), // baseline
		recordsOf("u/1", "a", "u/2", "b"), // clean
		recordsOf("u/1", "a", "u/2", "b"), // clean
		recordsOf("u/1", "A", "u/2", "b"), // one changed record
	))
	if _, err := s.Register("site", "http://site.example/", 0); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if n := s.Tick(ctx); n != 1 {
		t.Fatalf("baseline tick fired %d", n)
	}
	st, _ := s.Get("site")
	if st.Interval != 2*time.Minute || st.DriftRate != 0 {
		t.Fatalf("after baseline: interval=%v rate=%v", st.Interval, st.DriftRate)
	}
	if got := len(s.Feed().Since(0)); got != 2 {
		t.Fatalf("baseline should emit 2 new events, got %d", got)
	}

	fake.Advance(2 * time.Minute)
	s.Tick(ctx)
	fake.Advance(4 * time.Minute)
	s.Tick(ctx)
	st, _ = s.Get("site")
	if st.Interval != 8*time.Minute {
		t.Fatalf("stable site should decay to max, got %v", st.Interval)
	}

	fake.Advance(8 * time.Minute)
	s.Tick(ctx)
	st, _ = s.Get("site")
	// One of two records changed: rate 0.5, EWMA 0.25 → interval shrinks.
	if st.DriftRate != 0.25 {
		t.Fatalf("drift rate after 1/2 change = %v", st.DriftRate)
	}
	if st.Interval >= 8*time.Minute {
		t.Fatalf("changed site interval should shrink below max, got %v", st.Interval)
	}
	evs := s.Feed().Since(0)
	last := evs[len(evs)-1]
	if last.Kind != KindChanged || last.URI != "u/1" {
		t.Fatalf("expected changed event for u/1, got %+v", last)
	}
}

func TestSchedulerAlarmMakesDue(t *testing.T) {
	fake := resilient.NewFakeClock(time.Unix(1700000000, 0).UTC())
	s := newTestScheduler(t, fake, stubRecrawl(recordsOf("u/1", "a")))
	if _, err := s.Register("site", "http://site.example/", 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	s.Tick(context.Background()) // baseline; next fire far out
	st, _ := s.Get("site")
	if !st.NextFire.After(fake.Now()) {
		t.Fatal("schedule should not be due right after firing")
	}
	s.Alarm("site")
	st, _ = s.Get("site")
	if st.Interval != time.Minute || st.DriftRate != 1 || st.NextFire.After(fake.Now()) {
		t.Fatalf("alarm should snap to min and be due now: %+v", st)
	}
	if n := s.Tick(context.Background()); n != 1 {
		t.Fatalf("alarmed schedule did not fire, n=%d", n)
	}
}

func TestSchedulerPauseResumeRemove(t *testing.T) {
	fake := resilient.NewFakeClock(time.Unix(1700000000, 0).UTC())
	s := newTestScheduler(t, fake, stubRecrawl(recordsOf("u/1", "a")))
	if _, err := s.Register("site", "http://site.example/", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Pause("site"); err != nil {
		t.Fatal(err)
	}
	if n := s.Tick(context.Background()); n != 0 {
		t.Fatalf("paused schedule fired, n=%d", n)
	}
	if err := s.Resume("site"); err != nil {
		t.Fatal(err)
	}
	if n := s.Tick(context.Background()); n != 1 {
		t.Fatalf("resumed schedule did not fire, n=%d", n)
	}
	if err := s.Remove("site"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("site"); err == nil {
		t.Fatal("double remove should error")
	}
	if _, err := s.Register("", "http://x/", 0); err == nil {
		t.Fatal("empty repo should be rejected")
	}
	if _, err := s.Register("x", "not a url", 0); err == nil {
		t.Fatal("invalid url should be rejected")
	}
}

func TestSchedulerFailedRecrawlKeepsInterval(t *testing.T) {
	fake := resilient.NewFakeClock(time.Unix(1700000000, 0).UTC())
	calls := 0
	outcomes := map[string]int{}
	s := New(Config{
		MinInterval: time.Minute,
		Clock:       fake,
		Rand:        func() float64 { return 0 },
		Recrawl: func(ctx context.Context, sc ScheduleState) (*RecrawlResult, error) {
			calls++
			return nil, fmt.Errorf("origin down")
		},
		OnOutcome: func(outcome string) { outcomes[outcome]++ },
	})
	if _, err := s.Register("site", "http://site.example/", 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	s.Tick(context.Background())
	st, _ := s.Get("site")
	if st.LastOutcome != OutcomeFailed || st.Interval != 3*time.Minute {
		t.Fatalf("failed recrawl should keep interval: %+v", st)
	}
	if st.LastError == "" {
		t.Fatal("failed recrawl should record the error")
	}
	if calls != 1 {
		t.Fatalf("recrawl calls = %d", calls)
	}
	if outcomes[OutcomeFailed] != 1 || len(outcomes) != 1 {
		t.Fatalf("outcomes = %v, want one failed", outcomes)
	}
}

// TestSchedulerWALReplayResumesCadence is the restart property from
// the issue: journal every record scheduler A emits, replay them into
// scheduler B, and the full schedule state — including next-fire time
// and the last-seen record set — must match exactly.
func TestSchedulerWALReplayResumesCadence(t *testing.T) {
	fake := resilient.NewFakeClock(time.Unix(1700000000, 0).UTC())
	a := newTestScheduler(t, fake, stubRecrawl(
		recordsOf("u/1", "a", "u/2", "b"),
		recordsOf("u/1", "A", "u/2", "b"),
	))

	type walRec struct {
		kind     string
		schedule *ScheduleState
		repo     string
		recrawl  *RecrawlRecord
	}
	var wal []walRec
	a.SetJournal(Journal{
		Schedule: func(st *ScheduleState) { wal = append(wal, walRec{kind: "sched", schedule: st}) },
		Remove:   func(repo string) { wal = append(wal, walRec{kind: "remove", repo: repo}) },
		Recrawl:  func(r *RecrawlRecord) { wal = append(wal, walRec{kind: "recrawl", recrawl: r}) },
	})

	if _, err := a.Register("site", "http://site.example/", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Register("gone", "http://gone.example/", 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	a.Tick(context.Background())
	fake.Advance(2 * time.Minute)
	a.Tick(context.Background())

	b := newTestScheduler(t, fake, nil)
	for _, r := range wal {
		switch r.kind {
		case "sched":
			b.ApplyScheduleRecord(r.schedule)
		case "remove":
			b.ApplyScheduleRemove(r.repo)
		case "recrawl":
			b.ApplyRecrawlRecord(r.recrawl)
		}
	}

	wantList, gotList := a.List(), b.List()
	if !reflect.DeepEqual(wantList, gotList) {
		t.Fatalf("replayed schedules differ:\n want %+v\n  got %+v", wantList, gotList)
	}
	if want, got := a.Feed().NextSeq(), b.Feed().NextSeq(); want != got {
		t.Fatalf("feed next seq: want %d got %d", want, got)
	}
	if want, got := a.Feed().Since(0), b.Feed().Since(0); !reflect.DeepEqual(want, got) {
		t.Fatalf("replayed feed differs:\n want %+v\n  got %+v", want, got)
	}

	// Replaying the same records again must be a no-op (idempotent).
	for _, r := range wal {
		if r.kind == "recrawl" {
			b.ApplyRecrawlRecord(r.recrawl)
		}
	}
	if want, got := a.Feed().Since(0), b.Feed().Since(0); !reflect.DeepEqual(want, got) {
		t.Fatal("double replay duplicated feed events")
	}

	// Snapshot round trip: ExportState/RestoreState preserves everything.
	c := newTestScheduler(t, fake, nil)
	c.RestoreState(a.ExportState())
	if !reflect.DeepEqual(a.List(), c.List()) {
		t.Fatal("snapshot round trip lost schedule state")
	}
	if !reflect.DeepEqual(a.Feed().Since(0), c.Feed().Since(0)) {
		t.Fatal("snapshot round trip lost feed events")
	}
}

func TestFeedSinceWaitAndTrim(t *testing.T) {
	f := NewFeed(3)
	f.append([]Change{{Repo: "r", URI: "1", Kind: KindNew}})
	f.append([]Change{{Repo: "r", URI: "2", Kind: KindNew}, {Repo: "r", URI: "3", Kind: KindChanged}})
	f.append([]Change{{Repo: "r", URI: "4", Kind: KindVanished}})
	evs := f.Since(0)
	if len(evs) != 3 || evs[0].Seq != 2 || evs[2].Seq != 4 {
		t.Fatalf("trim kept wrong window: %+v", evs)
	}
	if got := f.Since(3); len(got) != 1 || got[0].URI != "4" {
		t.Fatalf("Since(3) = %+v", got)
	}
	totals := f.TotalsByKind()
	if totals[KindNew] != 2 || totals[KindChanged] != 1 || totals[KindVanished] != 1 {
		t.Fatalf("totals = %+v", totals)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Wait(ctx, 4) }()
	f.append([]Change{{Repo: "r", URI: "5", Kind: KindNew}})
	if err := <-done; err != nil {
		t.Fatalf("Wait after append: %v", err)
	}
	go func() { done <- f.Wait(ctx, 99) }()
	cancel()
	if err := <-done; err == nil {
		t.Fatal("Wait should fail on ctx cancel")
	}
}

func TestFingerprintValuesStable(t *testing.T) {
	a := FingerprintValues(map[string][]string{"title": {"x"}, "price": {"1", "2"}})
	b := FingerprintValues(map[string][]string{"price": {"1", "2"}, "title": {"x"}})
	if a != b {
		t.Fatal("fingerprint must not depend on map iteration order")
	}
	c := FingerprintValues(map[string][]string{"title": {"x"}, "price": {"12"}})
	if a == c {
		t.Fatal("fingerprint must separate value boundaries")
	}
}
