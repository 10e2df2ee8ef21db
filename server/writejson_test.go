package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/simulate"
)

// minReportBody is the smallest body the pooled-encoder tests and the
// benchmark take as a /whatif report: about the size of a median link
// failure's answer on the paper preset.
const minReportBody = 100_000

// paperReport is the /whatif report of the first link failure, strided
// over the paper preset's canonical edge list, whose body is at least
// minReportBody long: a customer cone's prefixes shifting catchment.
// Built once per test binary.
var paperReport = sync.OnceValues(func() (*policyscope.WhatIfReport, error) {
	study, err := cachedSynthetic(policyscope.DefaultConfig()).Load(context.Background())
	if err != nil {
		return nil, err
	}
	sess := policyscope.NewSessionFromStudy(study)
	edges := study.Topo.Graph.Edges()
	const tries = 32
	for i := 0; i < tries; i++ {
		e := edges[i*len(edges)/tries]
		rep, err := sess.WhatIf(context.Background(), simulate.Scenario{
			Name:   fmt.Sprintf("link:%d-%d", e.A, e.B),
			Events: []simulate.Event{simulate.FailLink(e.A, e.B)},
		})
		if err != nil {
			return nil, err
		}
		if body, err := json.MarshalIndent(rep, "", "  "); err != nil {
			return nil, err
		} else if len(body) >= minReportBody {
			return rep, nil
		}
	}
	return nil, fmt.Errorf("none of %d link failures answers with %d bytes or more", tries, minReportBody)
})

func whatIfReport(tb testing.TB) *policyscope.WhatIfReport {
	tb.Helper()
	rep, err := paperReport()
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// encoderBody is what a fresh json.NewEncoder with SetIndent("", "  ")
// writes for v: the wire contract, and what the benchmark harness's
// oracle renders every in-process result to.
func encoderBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordJSON answers v with a 200 through writeJSON into a recorder.
func recordJSON(v any) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec
}

// TestWriteJSONMatchesEncoder: writeJSON's body is a fresh encoder's,
// byte for byte, whatever the pair it was encoded into encoded before —
// the same value twice in a row, every value from 16 goroutines at once,
// and a body larger than the pool keeps.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	big := make([]string, 5)
	for i := range big {
		big[i] = strings.Repeat("x", 900_000)
	}
	cases := []struct {
		name string
		v    any
	}{
		{"whatif report", whatIfReport(t)},
		{"error body", struct {
			Error string `json:"error"`
		}{`unknown format "x" (want json or text)`}},
		{"html and line separators", []string{"<script>&amp;</script>", "a\u2028b\u2029c", "tab\there"}},
		{"nil slice", struct{ A []int }{nil}},
		{"empty slice", struct{ A []int }{[]int{}}},
		{"prefix keys", map[netx.Prefix]int{
			netx.MustParsePrefix("10.0.0.0/8"): 1, netx.MustParsePrefix("0.0.0.0/0"): 2,
			netx.MustParsePrefix("192.168.4.0/22"): 3, netx.MustParsePrefix("255.255.255.255/32"): 4}},
		{"asn keys", map[bgp.ASN]int{7018: 3, 1: 1, 4294967295: 2, 701: 0}},
		{"over the pool cap", big},
	}
	want := make([][]byte, len(cases))
	for i, c := range cases {
		want[i] = encoderBody(t, c.v)
	}
	if n := len(want[len(want)-1]); n <= 4<<20 {
		t.Fatalf("the oversized body is %d bytes, not over the pool cap", n)
	}
	check := func(name string, rec *httptest.ResponseRecorder, want []byte) error {
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: status %d", name, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			return fmt.Errorf("%s: Content-Type %q", name, ct)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			return fmt.Errorf("%s: body differs from a fresh encoder's", name)
		}
		return nil
	}
	for i, c := range cases {
		for round := 0; round < 2; round++ {
			if err := check(c.name, recordJSON(c.v), want[i]); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}

	// Bodies over the cap are admitted a few at a time: sixteen of them at
	// once would hold ~300 MB of encoder state for no added interleaving.
	bigSlots := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				i := (g + k) % len(cases)
				if i == len(cases)-1 {
					bigSlots <- struct{}{}
				}
				err := check(cases[i].name, recordJSON(cases[i].v), want[i])
				if i == len(cases)-1 {
					<-bigSlots
				}
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// failingJSON fails to marshal after the encoder has written part of its
// enclosing value.
type failingJSON struct{}

func (failingJSON) MarshalJSON() ([]byte, error) { return nil, errors.New("refused") }

// TestWriteJSONEncodeFailure: a value that does not marshal is answered
// 500 with the error body — never a 200 with nothing after it — and the
// failure leaves nothing behind for the next body to inherit.
func TestWriteJSONEncodeFailure(t *testing.T) {
	good := struct {
		Name  string         `json:"name"`
		Peers map[string]int `json:"peers"`
	}{"ok", map[string]int{"a": 1, "b": 2}}
	wantGood := encoderBody(t, good)
	for _, bad := range []struct {
		name string
		v    any
		msg  string
	}{
		{"NaN", struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		}{"half-written", math.NaN()}, "unsupported value: NaN"},
		{"marshaler error", struct {
			Name string      `json:"name"`
			Bad  failingJSON `json:"bad"`
		}{"half-written", failingJSON{}}, "refused"},
	} {
		rec := recordJSON(bad.v)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500", bad.name, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", bad.name, ct)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: body %q is not the error body: %v", bad.name, rec.Body.Bytes(), err)
		}
		if !strings.Contains(body.Error, bad.msg) {
			t.Fatalf("%s: error %q does not name the cause %q", bad.name, body.Error, bad.msg)
		}
		if want := encoderBody(t, body); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: error body %q, want %q", bad.name, rec.Body.Bytes(), want)
		}
		for i := 0; i < 2; i++ {
			rec := recordJSON(good)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), wantGood) {
				t.Fatalf("after %s: status %d, body %q; want 200, %q", bad.name, rec.Code, rec.Body.Bytes(), wantGood)
			}
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing but the length
// written.
type discardWriter struct {
	header http.Header
	n      int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// TestWriteJSONReusesBuffers: once the pool holds a pair grown to the
// body, answering the same report again allocates a small fraction of it
// — what the value's encoding itself costs, not the buffers. A fresh
// encoder's indent buffer alone allocates about four times the body.
func TestWriteJSONReusesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a share of the Puts")
	}
	rep := whatIfReport(t)
	w := &discardWriter{header: http.Header{}}
	writeJSON(w, http.StatusOK, rep)
	body := w.n
	// Every P keeps its own pooled pair and encoding/json its own encode
	// state, each in a slot no other P reads. Answer the report on every
	// P at once first, so that a call the scheduler moves to another P
	// (ReadMemStats stops the world) finds both there already grown, and
	// hold the collector off during the window: two collections empty a
	// sync.Pool of whatever was not taken in between.
	procs := runtime.GOMAXPROCS(0)
	var ready, done sync.WaitGroup
	ready.Add(procs)
	for p := 0; p < procs; p++ {
		done.Add(1)
		go func() {
			defer done.Done()
			ready.Done()
			ready.Wait()
			for i := 0; i < 8; i++ {
				writeJSON(&discardWriter{header: http.Header{}}, http.StatusOK, rep)
			}
		}()
	}
	done.Wait()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		writeJSON(w, http.StatusOK, rep)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("body %d bytes, %d bytes allocated per call", body, perCall)
	if w.n != body*(calls+1) {
		t.Fatalf("wrote %d bytes over %d calls of a %d-byte body", w.n, calls+1, body)
	}
	if perCall >= uint64(body/4) {
		t.Fatalf("%d bytes allocated per call for a %d-byte body: the buffers are not reused", perCall, body)
	}
}

// BenchmarkWriteJSONWhatIf answers the paper preset's failover report
// (one op = one body) into a writer that keeps nothing.
func BenchmarkWriteJSONWhatIf(b *testing.B) {
	rep := whatIfReport(b)
	w := &discardWriter{header: http.Header{}}
	writeJSON(w, http.StatusOK, rep)
	b.SetBytes(int64(w.n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeJSON(w, http.StatusOK, rep)
	}
}
