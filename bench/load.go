package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// ingestWindow is how many NDJSON lines the ingest client keeps in
	// flight. Bounding it makes line latency the service's own, not the
	// depth of whatever the socket buffers hold.
	ingestWindow = 128
	// ingestBatch is how many lines go out per chunk write once the
	// window has room.
	ingestBatch = 32
	// extractClients is the closed-loop client count of extract-single
	// (a crawler with 2 fetch workers).
	extractClients = 2
	// sampleEvery paces the pool queue-depth samples.
	sampleEvery = time.Second
	// roundTimeout bounds one round's traffic.
	roundTimeout = 120 * time.Second
	// maxReports caps the mismatches printed per round.
	maxReports = 3
)

// round is what one daemon yields: its measured windows, plus totals
// over every page it was sent, warm-up included.
type round struct {
	windows []window
	rss     float64 // daemon peak RSS at the end of the round, MB
	m0, m1  *scrape // /metrics at the start and end of the measured windows
	depths  []int
	sent    int
	failed  int
	// Outputs that were unrouted errors, and records with failures.
	unrouted, failing int
}

// window is one measured stretch of a round.
type window struct {
	pages     int
	wall      float64 // seconds
	cpu       float64 // daemon CPU seconds
	clientCPU float64 // benchmark CPU seconds
	lat       []float64
}

// mark is one end of a measured window.
type mark struct {
	at        time.Time
	cpu       float64
	clientCPU float64
}

func takeMark(pid int) (mark, error) {
	cpu, err := procCPU(pid)
	return mark{at: time.Now(), cpu: cpu, clientCPU: selfCPU()}, err
}

// closeWindows turns the marks between windows into the round's windows.
func (r *round) closeWindows(marks []mark, lat [][]float64, pages int) {
	for k := 0; k+1 < len(marks); k++ {
		r.windows = append(r.windows, window{
			pages:     pages,
			wall:      marks[k+1].at.Sub(marks[k].at).Seconds(),
			cpu:       marks[k+1].cpu - marks[k].cpu,
			clientCPU: marks[k+1].clientCPU - marks[k].clientCPU,
			lat:       lat[k],
		})
	}
}

// windowEdge reports whether the n-th completed page (1-based) closes
// the warm-up or a window, and which mark it is.
func (w workload) windowEdge(n int) (int, bool) {
	if n < w.warm || (n-w.warm)%w.window != 0 {
		return 0, false
	}
	return (n - w.warm) / w.window, true
}

// reporter prints the first few mismatches of a round to stderr.
type reporter struct {
	mu sync.Mutex
	n  int
}

func (rep *reporter) report(format string, args ...any) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.n < maxReports {
		fmt.Fprintf(os.Stderr, "bench: mismatch: "+format+"\n", args...)
	}
	rep.n++
}

var (
	unroutedTag = []byte(`,"error":"unrouted:`)
	failuresTag = []byte(`"failures":[`)
)

// ingestRound streams a round's pages through one POST /ingest
// exchange and checks every result line against its reference.
func ingestRound(d *daemon, fx *fixture) (*round, error) {
	c, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(roundTimeout)); err != nil {
		return nil, err
	}
	mc, err := dial(d.addr)
	if err != nil {
		return nil, err
	}
	defer mc.close()

	total := fx.w.total()
	fl := newInflight(total)
	writeErr := make(chan error, 1)
	go func() { writeErr <- writeIngest(c, fx, total, fl.admit) }()
	smp := newSampler(mc)
	r, err := readIngest(d, fx, c, smp, fl)
	m0, m1, depths, serr := smp.stop()
	if err == nil {
		err = serr
	}
	if err != nil {
		fl.abort()
		_ = c.Close()
		<-writeErr
		return nil, err
	}
	if err := <-writeErr; err != nil {
		return nil, fmt.Errorf("/ingest request body: %w", err)
	}
	r.m0, r.m1, r.depths = m0, m1, depths
	if r.rss, err = procHWM(d.pid()); err != nil {
		return nil, err
	}
	return r, nil
}

// inflight is the ingest client's window of lines sent but not yet
// answered, shared by the writer and the reader.
type inflight struct {
	mu          sync.Mutex
	room        sync.Cond
	sent, acked int
	aborted     bool
	base        time.Time
	sendAt      []int64 // ns since base, per line
}

func newInflight(total int) *inflight {
	f := &inflight{base: time.Now(), sendAt: make([]int64, total)}
	f.room.L = &f.mu
	return f
}

// admit blocks until lines [first, last) fit the window, then stamps
// their send time. It returns false once the round is aborted.
func (f *inflight) admit(first, last int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.sent-f.acked > ingestWindow-(last-first) && !f.aborted {
		f.room.Wait()
	}
	t := time.Since(f.base).Nanoseconds()
	for i := first; i < last; i++ {
		f.sendAt[i] = t
	}
	f.sent = last
	return !f.aborted
}

// ack releases line i from the window and returns its latency in µs.
func (f *inflight) ack(i int) float64 {
	now := time.Since(f.base).Nanoseconds()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.acked++
	f.room.Signal()
	return float64(now-f.sendAt[i]) / 1e3
}

func (f *inflight) abort() {
	f.mu.Lock()
	f.aborted = true
	f.room.Broadcast()
	f.mu.Unlock()
}

// readIngest reads and checks the /ingest response: one result line per
// page, then the summary line.
func readIngest(d *daemon, fx *fixture, c net.Conn, smp *sampler, fl *inflight) (*round, error) {
	w := fx.w
	total := w.total()
	r := &round{sent: total}
	var rep reporter
	marks := make([]mark, 0, w.windows+1)
	lat := make([][]float64, w.windows)
	resp, err := http.ReadResponse(bufio.NewReaderSize(c, 256<<10), &http.Request{Method: http.MethodPost})
	if err != nil {
		return nil, fmt.Errorf("/ingest: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/ingest: status %d", resp.StatusCode)
	}
	body := bufio.NewReaderSize(resp.Body, 256<<10)
	for i := 0; i < total; i++ {
		line, err := body.ReadSlice('\n')
		if err != nil {
			return nil, fmt.Errorf("/ingest result %d: %w", i, err)
		}
		l := fl.ack(i)
		p := fx.ingestPage(i)
		if !p.expect.match(line, p.uriPre, p.uriSuf, int64(idBase+i)) {
			r.failed++
			rep.report("ingest line %d: %.300s", i, line)
		}
		if bytes.Contains(line, unroutedTag) {
			r.unrouted++
		} else if bytes.Contains(line, failuresTag) {
			r.failing++
		}
		if i >= w.warm {
			k := (i - w.warm) / w.window
			lat[k] = append(lat[k], l)
		}
		if k, ok := w.windowEdge(i + 1); ok {
			m, err := takeMark(d.pid())
			if err != nil {
				return nil, err
			}
			marks = append(marks, m)
			if k == 0 {
				smp.start()
			}
		}
	}
	r.closeWindows(marks, lat, w.window)

	// The summary line closes the exchange.
	line, err := body.ReadSlice('\n')
	if err != nil {
		return nil, fmt.Errorf("/ingest summary: %w", err)
	}
	var sum struct {
		Done  bool   `json:"done"`
		Pages int    `json:"pages"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(line, &sum); err != nil || !sum.Done || sum.Pages != total || sum.Error != "" {
		return nil, fmt.Errorf("/ingest summary %q (%v), want %d pages", line, err, total)
	}
	if _, err := io.Copy(io.Discard, body); err != nil {
		return nil, err
	}
	return r, nil
}

// writeIngest sends the chunked /ingest request: total NDJSON lines, each
// a pre-encoded page with its id spliced into the URI. admit blocks
// until the lines [first, last) fit the window and stamps their send
// time; it returns false when the round was aborted.
func writeIngest(c net.Conn, fx *fixture, total int, admit func(first, last int) bool) error {
	if _, err := io.WriteString(c, "POST /ingest HTTP/1.1\r\nHost: bench\r\n"+
		"Content-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n"); err != nil {
		return err
	}
	var chunk []byte
	for first := 0; first < total; first += ingestBatch {
		last := min(first+ingestBatch, total)
		chunk = chunk[:0]
		for i := first; i < last; i++ {
			chunk = appendIngestLine(chunk, fx, i)
		}
		if !admit(first, last) {
			return nil
		}
		frame := strconv.AppendInt(nil, int64(len(chunk)), 16)
		frame = append(frame, '\r', '\n')
		bufs := net.Buffers{frame, chunk, []byte("\r\n")}
		if _, err := bufs.WriteTo(c); err != nil {
			return err
		}
	}
	_, err := io.WriteString(c, "0\r\n\r\n")
	return err
}

// appendIngestLine appends the NDJSON line of the seq-th ingest page.
func appendIngestLine(b []byte, fx *fixture, seq int) []byte {
	p := fx.ingestPage(seq)
	b = append(b, p.linePre...)
	b = strconv.AppendInt(b, int64(idBase+seq), 10)
	return append(b, p.lineSuf...)
}

// sampler owns the metrics connection of an ingest round: a scrape at
// the start of the window, queue-depth samples every second, a scrape at
// the end.
type sampler struct {
	mc      *conn
	begin   chan struct{}
	end     chan struct{}
	done    chan struct{}
	endOnce sync.Once
	m0, m1  *scrape
	depths  []int
	err     error
}

func newSampler(mc *conn) *sampler {
	s := &sampler{mc: mc, begin: make(chan struct{}), end: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *sampler) run() {
	defer close(s.done)
	select {
	case <-s.begin:
	case <-s.end:
		return
	}
	if s.m0, s.err = s.mc.scrape(); s.err != nil {
		<-s.end
		return
	}
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			m, err := s.mc.scrape()
			if err != nil {
				s.err = err
				<-s.end
				return
			}
			s.depths = append(s.depths, m.Pool.QueueDepth)
		case <-s.end:
			s.m1, s.err = s.mc.scrape()
			return
		}
	}
}

func (s *sampler) start() { close(s.begin) }

// stop ends sampling and returns what was collected. It may be called
// more than once.
func (s *sampler) stop() (*scrape, *scrape, []int, error) {
	s.endOnce.Do(func() { close(s.end) })
	<-s.done
	if s.err == nil && (s.m0 == nil || s.m1 == nil) {
		s.err = fmt.Errorf("/metrics: window never opened")
	}
	return s.m0, s.m1, s.depths, s.err
}

// extractRound runs the closed loop of extract-single: extractClients
// keep-alive connections, each posting its next request as soon as the
// previous response is read and checked.
func extractRound(d *daemon, fx *fixture) (*round, error) {
	w := fx.w
	x := &extractLoop{
		d: d, fx: fx, base: time.Now(),
		r:     &round{sent: w.total()},
		marks: make([]mark, w.windows+1),
		lat:   make([][]float64, w.windows),
	}
	var wg sync.WaitGroup
	errs := make(chan error, extractClients)
	for k := 0; k < extractClients; k++ {
		c, err := dial(d.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := x.client(c); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	r := x.r
	if r.m0 == nil || r.m1 == nil {
		return nil, fmt.Errorf("/extract: window never closed")
	}
	r.closeWindows(x.marks, x.lat, w.window)
	var err error
	if r.rss, err = procHWM(d.pid()); err != nil {
		return nil, err
	}
	return r, nil
}

// extractLoop is the state the extract-single clients share.
type extractLoop struct {
	d    *daemon
	fx   *fixture
	base time.Time
	// next is the next request to send, done the responses read so far.
	next, done atomic.Int64
	// lastSample is when the last queue-depth sample was taken (ns since
	// base; 0 until the first window opens).
	lastSample atomic.Int64
	rep        reporter

	mu    sync.Mutex // guards r, marks and lat
	r     *round
	marks []mark
	lat   [][]float64
}

// client is one closed-loop client: it takes the next request of the
// sequence, sends it, reads and checks the response, and repeats. The
// client that completes the request closing the warm-up or a window
// takes the mark, and the /metrics scrapes, on its own connection.
func (x *extractLoop) client(c *conn) error {
	w := x.fx.w
	total := w.total()
	var req []byte
	var buf bytes.Buffer
	for {
		i := x.next.Add(1) - 1
		if i >= int64(total) {
			return nil
		}
		t := x.fx.tpls[x.fx.reqs[i]]
		req = strconv.AppendInt(append(req[:0], t.reqPre...), idBase+i, 10)
		req = append(req, t.reqSuf...)
		t0 := time.Now()
		status, err := c.roundTrip(req, &buf)
		if err != nil {
			return fmt.Errorf("/extract request %d: %w", i, err)
		}
		elapsed := float64(time.Since(t0).Nanoseconds()) / 1e3
		ok := status == http.StatusOK && t.expect.match(buf.Bytes(), t.page.uriPre, t.page.uriSuf, idBase+i)
		if !ok {
			x.rep.report("extract request %d: status %d: %.300s", i, status, buf.Bytes())
		}
		n := int(x.done.Add(1))
		x.mu.Lock()
		if !ok {
			x.r.failed++
		} else if bytes.Contains(buf.Bytes(), failuresTag) {
			x.r.failing++
		}
		if n > w.warm {
			k := (n - w.warm - 1) / w.window
			x.lat[k] = append(x.lat[k], elapsed)
		}
		x.mu.Unlock()
		if k, edge := w.windowEdge(n); edge {
			if err := x.edge(c, k); err != nil {
				return err
			}
		}
		// Queue-depth samples during the windows, taken by whichever
		// client notices a second has passed.
		if last := x.lastSample.Load(); last > 0 && n < total {
			now := time.Since(x.base).Nanoseconds()
			if now-last >= sampleEvery.Nanoseconds() && x.lastSample.CompareAndSwap(last, now) {
				s, err := c.scrape()
				if err != nil {
					return err
				}
				x.mu.Lock()
				x.r.depths = append(x.r.depths, s.Pool.QueueDepth)
				x.mu.Unlock()
			}
		}
	}
}

// edge takes mark k; the first and last marks also scrape /metrics.
func (x *extractLoop) edge(c *conn, k int) error {
	m, err := takeMark(x.d.pid())
	if err != nil {
		return err
	}
	var s *scrape
	if k == 0 || k == x.fx.w.windows {
		if s, err = c.scrape(); err != nil {
			return err
		}
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.marks[k] = m
	switch k {
	case 0:
		x.r.m0 = s
		x.lastSample.Store(time.Since(x.base).Nanoseconds())
	case x.fx.w.windows:
		x.r.m1 = s
	}
	return nil
}
