package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
)

// slowSource wraps a Source so tests can hold its Load open: started
// closes when a build begins, and the build blocks until release
// closes. This pins requests inside the heavy admission gate
// deterministically.
type slowSource struct {
	inner     dataset.Source
	startOnce sync.Once
	started   chan struct{}
	release   chan struct{}
}

func newSlowSource(inner dataset.Source) *slowSource {
	return &slowSource{inner: inner, started: make(chan struct{}), release: make(chan struct{})}
}

func (s *slowSource) Spec() dataset.Spec { return s.inner.Spec() }

func (s *slowSource) Load(ctx context.Context) (*policyscope.Study, error) {
	s.startOnce.Do(func() { close(s.started) })
	<-s.release
	return s.inner.Load(ctx)
}

// TestAdmissionShed: with MaxHeavy=1 and one heavy request pinned in
// flight, the next heavy request is shed with 429 + Retry-After while
// light reads and health probes keep answering; releasing the slot lets
// the pinned request complete normally.
func TestAdmissionShed(t *testing.T) {
	tiny := policyscope.Config{NumASes: 120, Seed: 7, CollectorPeers: 8, LookingGlassASes: 5}
	slow := newSlowSource(cachedSynthetic(tiny))
	cat := dataset.NewCatalog()
	if err := cat.Register("slow", slow); err != nil {
		t.Fatal(err)
	}
	srv := New(dataset.NewPool(cat, 1), WithLimits(Limits{MaxHeavy: 1}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type result struct {
		status int
		err    error
	}
	firstc := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/run/overview", "application/json", strings.NewReader(""))
		if err != nil {
			firstc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		_, _ = io.ReadAll(resp.Body)
		firstc <- result{status: resp.StatusCode}
	}()
	<-slow.started // the first heavy request now holds the only slot

	resp, err := http.Post(ts.URL+"/run/overview", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	shedBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second heavy request: status %d, want 429: %s", resp.StatusCode, shedBody)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response carries no Retry-After")
	}
	if !strings.Contains(string(shedBody), "overloaded") {
		t.Fatalf("shed body does not say overloaded: %s", shedBody)
	}

	// The light tier and health probes are not collateral damage.
	if status, body := get(t, ts.URL+"/experiments"); status != http.StatusOK {
		t.Fatalf("light request during heavy saturation: %d %s", status, body)
	}
	if status, body := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz during heavy saturation: %d %s", status, body)
	}

	close(slow.release)
	res := <-firstc
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("pinned request after release: %+v", res)
	}
	// The slot is free again.
	if status, body := post(t, ts.URL+"/run/overview", ""); status != http.StatusOK {
		t.Fatalf("heavy request after release: %d %s", status, body)
	}
}

// TestPanicRecovery: a panicking handler answers 500 and the process
// (and every other route) keeps serving; the http.ErrAbortHandler
// sentinel still propagates so deliberate stream aborts kill the
// connection instead of minting a bogus 500.
func TestPanicRecovery(t *testing.T) {
	tiny := policyscope.Config{NumASes: 120, Seed: 7, CollectorPeers: 8, LookingGlassASes: 5}
	cat := dataset.NewCatalog()
	if err := cat.Register("tiny", cachedSynthetic(tiny)); err != nil {
		t.Fatal(err)
	}
	srv := New(dataset.NewPool(cat, 1))
	srv.handle("GET /panic", "panic_test", classLight, func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	srv.handle("GET /abort", "abort_test", classLight, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("partial"))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, body := get(t, ts.URL+"/panic")
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d: %s", status, body)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Fatalf("panic response leaks or is empty: %s", body)
	}
	// The process survived; unrelated routes still answer.
	if status, body := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz after panic: %d %s", status, body)
	}

	// ErrAbortHandler must reach net/http: the client sees a broken
	// stream, not a clean response.
	resp, err := http.Get(ts.URL + "/abort")
	if err == nil {
		_, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			t.Fatal("aborted stream read cleanly; ErrAbortHandler was swallowed")
		}
	}
}

// TestHealthzDraining: SetDraining flips healthz to 503/draining so
// load balancers pull the replica while in-flight work finishes.
func TestHealthzDraining(t *testing.T) {
	tiny := policyscope.Config{NumASes: 120, Seed: 7, CollectorPeers: 8, LookingGlassASes: 5}
	cat := dataset.NewCatalog()
	if err := cat.Register("tiny", cachedSynthetic(tiny)); err != nil {
		t.Fatal(err)
	}
	srv := New(dataset.NewPool(cat, 1))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz before drain: %d", status)
	}
	srv.SetDraining()
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d: %s", status, body)
	}
	var h struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.OK || !h.Draining {
		t.Fatalf("draining healthz body: %+v", h)
	}
	// Draining only signals; existing routes keep answering until the
	// listener closes.
	if status, body := get(t, ts.URL+"/experiments"); status != http.StatusOK {
		t.Fatalf("request while draining: %d %s", status, body)
	}
}

// TestBuildCooldown503: a dataset whose build just failed answers 503 +
// Retry-After (not a fresh failing build) until the pool cooldown
// lapses, and the cooldown is visible through /healthz pool stats.
func TestBuildCooldown503(t *testing.T) {
	cat := dataset.NewCatalog()
	if err := cat.Register("broken", dataset.NewMRTFile(filepath.Join(t.TempDir(), "missing.mrt"))); err != nil {
		t.Fatal(err)
	}
	pool := dataset.NewPool(cat, 1)
	pool.SetFailureCooldown(time.Minute)
	ts := httptest.NewServer(New(pool))
	defer ts.Close()

	if status, body := post(t, ts.URL+"/run/overview?dataset=broken", ""); status != http.StatusInternalServerError {
		t.Fatalf("first build failure: status %d: %s", status, body)
	}
	resp, err := http.Post(ts.URL+"/run/overview?dataset=broken", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during cooldown: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("cooldown response carries no Retry-After")
	}
	if !strings.Contains(string(body), "cooling down") {
		t.Fatalf("cooldown body: %s", body)
	}

	status, hbody := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: %d", status)
	}
	var h struct {
		Pool dataset.Stats `json:"pool"`
	}
	if err := json.Unmarshal(hbody, &h); err != nil {
		t.Fatal(err)
	}
	le, ok := h.Pool.LastErrors["broken"]
	if !ok || le.RetryAfterSeconds <= 0 {
		t.Fatalf("cooldown not visible in healthz pool stats: %s", hbody)
	}
}

// TestRequestTimeout: the server-side heavy-request deadline cancels
// work through the normal context plumbing and answers 503.
func TestRequestTimeout(t *testing.T) {
	tiny := policyscope.Config{NumASes: 120, Seed: 7, CollectorPeers: 8, LookingGlassASes: 5}
	slow := newSlowSource(cachedSynthetic(tiny))
	defer close(slow.release) // unblock the detached build goroutine
	cat := dataset.NewCatalog()
	if err := cat.Register("slow", slow); err != nil {
		t.Fatal(err)
	}
	srv := New(dataset.NewPool(cat, 1), WithLimits(Limits{RequestTimeout: 50 * time.Millisecond}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, body := post(t, ts.URL+"/run/overview", "")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request: status %d: %s", status, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("timeout body: %s", body)
	}
}
