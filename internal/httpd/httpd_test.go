package httpd

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// startServe runs serve on an ephemeral listener and returns the base
// URL, the cancel that triggers shutdown, and the error channel.
func startServe(t *testing.T, cfg Config, h http.Handler) (string, context.CancelFunc, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- serve(ctx, cfg, h, ln) }()
	return "http://" + ln.Addr().String(), cancel, errc
}

// TestGracefulDrain: cancellation lets an in-flight request finish, the
// Draining hook fires before the handler completes, and Run returns nil.
func TestGracefulDrain(t *testing.T) {
	var draining atomic.Bool
	sawDraining := make(chan bool, 1)
	started := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		// The drain begins while we are in flight; the hook must have
		// run by the time the handler observes it.
		sawDraining <- draining.Load()
		fmt.Fprint(w, "done")
	})
	url, cancel, errc := startServe(t, Config{
		DrainTimeout: 5 * time.Second,
		Draining:     func() { draining.Store(true) },
	}, h)

	type result struct {
		body string
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get(url + "/")
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		resc <- result{body: string(b), err: err}
	}()

	<-started
	cancel() // begin the drain with the request still in flight
	// Give the drain a moment to start before releasing the handler, so
	// the handler provably completes *during* the drain.
	time.Sleep(50 * time.Millisecond)
	close(release)

	res := <-resc
	if res.err != nil || res.body != "done" {
		t.Fatalf("in-flight request did not complete through the drain: %q, %v", res.body, res.err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("graceful drain returned %v, want nil", err)
	}
	if saw := <-sawDraining; !saw {
		t.Fatal("Draining hook had not run while the request drained")
	}
}

// TestDrainTimeout: a handler that outlives DrainTimeout gets cut and
// serve reports the timeout instead of hanging.
func TestDrainTimeout(t *testing.T) {
	started := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-r.Context().Done() // hold until the hard close
	})
	url, cancel, errc := startServe(t, Config{DrainTimeout: 50 * time.Millisecond}, h)
	go func() {
		resp, err := http.Get(url + "/")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("drain timeout not reported")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve hung past DrainTimeout")
	}
}

// TestServeRequests: the configured server answers plain requests.
func TestServeRequests(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
	// serve does not default the config (Run does), and a zero DrainTimeout
	// is a drain that has already timed out: the client has the whole body
	// a moment before the server marks the connection idle, and a shutdown
	// landing in between would report the connection as cut. Give the drain
	// time to see it idle, and do not leave it pooled on the client side.
	url, cancel, errc := startServe(t, Config{DrainTimeout: 5 * time.Second}, h)
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get(url + "/")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(b) != "ok" {
		t.Fatalf("body %q", b)
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("shutdown with no in-flight work failed: %v", err)
	}
}
