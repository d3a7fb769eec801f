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
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/extractd from the working tree at root, so
// each commit measures its own code.
func buildDaemon(root, out string) (string, error) {
	bin := filepath.Join(out, "extractd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/extractd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building extractd: %w", err)
	}
	return bin, nil
}

// daemon is one running extractd process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once stderr hits EOF
}

// live tracks running daemons so an aborted benchmark can kill them.
var live struct {
	sync.Mutex
	m map[*daemon]bool
}

// startDaemon boots extractd on a fresh data directory with the given
// -rules preloads and returns it with its set-up time: exec to the
// first 200 from /healthz. Router learning and drift monitors keep
// their defaults; -auto-repair and -monitor stay off so the workload is
// stationary.
func startDaemon(bin, dataDir string, procs int, rules []string) (*daemon, float64, error) {
	args := []string{"-addr", "127.0.0.1:0", "-data-dir", dataDir, "-fsync", "interval",
		"-induct", "-workers", strconv.Itoa(procs)}
	for _, r := range rules {
		args = append(args, "-rules", r)
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	live.Lock()
	if live.m == nil {
		live.m = map[*daemon]bool{}
	}
	live.m[d] = true
	live.Unlock()

	br := bufio.NewReader(stderr)
	var log strings.Builder
	for d.addr == "" {
		line, err := br.ReadString('\n')
		log.WriteString(line)
		if err != nil {
			d.kill()
			return nil, 0, fmt.Errorf("extractd exited before listening: %s", log.String())
		}
		if strings.Contains(line, "msg=extractd.listening") {
			d.addr = logField(line, "addr")
		}
	}
	// The daemon logs every request; keep draining so it never blocks.
	go func() {
		_, _ = io.Copy(io.Discard, br)
		close(d.drained)
	}()
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := client.Get("http://" + d.addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("extractd at %s never became healthy: %v", d.addr, err)
		}
		time.Sleep(time.Millisecond)
	}
	client.CloseIdleConnections()
	return d, time.Since(start).Seconds(), nil
}

// logField extracts key=value from a text-format slog line.
func logField(line, key string) string {
	i := strings.Index(line, " "+key+"=")
	if i < 0 {
		return ""
	}
	v := line[i+len(key)+2:]
	if j := strings.IndexAny(v, " \n"); j >= 0 {
		v = v[:j]
	}
	return v
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop shuts the daemon down gracefully (SIGTERM, as an operator would)
// and waits for it to exit; a daemon that hangs is killed.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	err := d.cmd.Wait()
	live.Lock()
	delete(live.m, d)
	live.Unlock()
	if err != nil {
		return fmt.Errorf("extractd shutdown: %w", err)
	}
	return nil
}

// kill ends the daemon without ceremony and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
	live.Lock()
	delete(live.m, d)
	live.Unlock()
}

// killAll ends every daemon still running.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.m))
	for d := range live.m {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// clkTck is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clkTck = 100

// procCPU returns a process's user+system CPU seconds so far.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return float64(utime+stime) / clkTck, nil
}

// procHWM returns a process's peak resident set size in MB (VmHWM).
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns this process's user+system CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// scrape is the part of the daemon's JSON /metrics the benchmark reads.
type scrape struct {
	PageCacheHits   int64 `json:"pageCacheHits"`
	PageCacheMisses int64 `json:"pageCacheMisses"`
	StreamHits      int64 `json:"streamHits"`
	StreamFallbacks int64 `json:"streamFallbacks"`
	Shed            int64 `json:"shed"`
	Pool            struct {
		QueueDepth int `json:"queueDepth"`
	} `json:"pool"`
	Pipeline []struct {
		Stage   string `json:"stage"`
		Latency struct {
			Count int64   `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"latency"`
	} `json:"pipeline"`
	Store *struct {
		WALBytes int64 `json:"walBytes"`
		Fsyncs   int64 `json:"fsyncs"`
	} `json:"store"`
}

// stage returns one pipeline stage's latency count and sum (seconds).
func (s *scrape) stage(name string) (int64, float64) {
	for _, st := range s.Pipeline {
		if st.Stage == name {
			return st.Latency.Count, st.Latency.Sum
		}
	}
	return 0, 0
}

func (s *scrape) walBytes() int64 {
	if s.Store == nil {
		return 0
	}
	return s.Store.WALBytes
}

func (s *scrape) fsyncs() int64 {
	if s.Store == nil {
		return 0
	}
	return s.Store.Fsyncs
}

// conn is one keep-alive HTTP/1.1 client connection driven by hand, so
// the client's per-request work stays a copy and a compare.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// roundTrip sends one raw request and reads the response into buf.
func (c *conn) roundTrip(req []byte, buf *bytes.Buffer) (int, error) {
	if err := c.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

var metricsRequest = []byte("GET /metrics HTTP/1.1\r\nHost: bench\r\nAccept: application/json\r\n\r\n")

// scrape reads /metrics on this connection.
func (c *conn) scrape() (*scrape, error) {
	var buf bytes.Buffer
	status, err := c.roundTrip(metricsRequest, &buf)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	var s scrape
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &s, nil
}

func (c *conn) close() { _ = c.c.Close() }
