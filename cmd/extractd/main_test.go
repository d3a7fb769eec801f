package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/rule"
	"repro/internal/service"
)

// TestGracefulShutdown: cancelling the serve context (the SIGINT/SIGTERM
// path) stops accepting, lets an in-flight request finish with a real
// response, drains the worker pool and returns.
func TestGracefulShutdown(t *testing.T) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(41, 12))
	sample, _ := cl.RepresentativeSplit(10)
	builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
		t.Fatal(err)
	}

	srv := service.NewServer(2, 4, nil)
	if _, err := srv.LoadRepo("movies", repo); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, srv, 5*time.Second, obs.NopLogger()) }()

	// Requests in flight when the signal lands must complete.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			page := cl.Pages[i%len(cl.Pages)]
			resp, err := http.Post(base+"/extract?repo=movies", "text/html",
				strings.NewReader("<html><body><b>Title:</b> x <br></body></html>"))
			if err != nil {
				errs <- fmt.Errorf("request %d (%s): %v", i, page.URI, err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	// Give the requests a moment to be accepted, then "signal".
	time.Sleep(50 * time.Millisecond)
	cancel()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after shutdown")
	}

	// The pool is drained and closed: no new work is accepted.
	if err := srv.Pool.DoWait(context.Background(), -1, func() {}); err == nil {
		t.Error("pool still accepting work after shutdown")
	}
	// The listener is released: a fresh server can bind the same address.
	ln2, err := net.Listen("tcp", ln.Addr().String())
	if err != nil {
		t.Errorf("address still bound after shutdown: %v", err)
	} else {
		ln2.Close()
	}
}

// TestHTTPServerHardened: the listener configuration defends against
// slow clients — every timeout and the header cap must be set.
func TestHTTPServerHardened(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: headers can trickle in forever (slowloris)")
	}
	if s.ReadTimeout <= 0 || s.WriteTimeout <= 0 {
		t.Errorf("ReadTimeout=%v WriteTimeout=%v: whole-exchange deadlines unset",
			s.ReadTimeout, s.WriteTimeout)
	}
	if s.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: idle keep-alive connections pile up")
	}
	if s.MaxHeaderBytes <= 0 {
		t.Error("MaxHeaderBytes unset: unbounded header memory per connection")
	}
}

// TestSlowHeaderClientDropped drives a real connection that sends its
// request header one byte at a time past the header deadline and must be
// disconnected, while a normal client on the same server is served.
func TestSlowHeaderClientDropped(t *testing.T) {
	srv := service.NewServer(1, 1, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := newHTTPServer(srv.Handler())
	httpSrv.ReadHeaderTimeout = 100 * time.Millisecond
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\nX-Slow:")); err != nil {
		t.Fatal(err)
	}
	// Never finish the header; the server must cut the connection.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the half-sent-header connection alive past ReadHeaderTimeout")
	}

	// A well-behaved client is unaffected.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
}
