package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWriteTextGolden pins the exposition format byte-for-byte: sorted
// metric order, HELP/TYPE comments, cumulative le= buckets, label
// rendering. Prometheus scrapers and the bench scripts both parse this
// text, so format drift is a real break.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_requests_total", "Requests served.")
	c.Add(3)
	g := r.NewGauge("test_inflight", "In-flight requests.")
	g.Set(2)
	r.NewGaugeFunc("test_pool_resident", "Resident sessions.", func() float64 { return 1.5 })
	h := r.NewHistogram("test_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(0.25)
	h.Observe(5)
	cv := r.NewCounterVec("test_status_total", "Responses by status class.", "class")
	cv.With("2xx").Add(7)
	cv.With("5xx").Inc()
	hv := r.NewHistogramVec("test_phase_seconds", "Phase latency.", []float64{0.5}, "phase")
	hv.With("converge").Observe(0.25)

	var sb strings.Builder
	r.WriteText(&sb)
	want := `# HELP test_inflight In-flight requests.
# TYPE test_inflight gauge
test_inflight 2
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.01"} 2
test_latency_seconds_bucket{le="0.1"} 2
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 5.26
test_latency_seconds_count 4
# HELP test_phase_seconds Phase latency.
# TYPE test_phase_seconds histogram
test_phase_seconds_bucket{phase="converge",le="0.5"} 1
test_phase_seconds_bucket{phase="converge",le="+Inf"} 1
test_phase_seconds_sum{phase="converge"} 0.25
test_phase_seconds_count{phase="converge"} 1
# HELP test_pool_resident Resident sessions.
# TYPE test_pool_resident gauge
test_pool_resident 1.5
# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total 3
# HELP test_status_total Responses by status class.
# TYPE test_status_total counter
test_status_total{class="2xx"} 7
test_status_total{class="5xx"} 1
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestParseRoundTrip renders a registry, parses it back with the
// minimal parser, and checks every sample against the live handles.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("rt_events_total", "Events.")
	c.Add(41)
	c.Inc()
	h := r.NewHistogram("rt_seconds", "Latency.", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(3)
	cv := r.NewCounterVec("rt_by_kind_total", "By kind.", "kind")
	cv.With("a").Add(5)

	var sb strings.Builder
	r.WriteText(&sb)
	samples, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	check := func(name, labelSub string, want float64) {
		t.Helper()
		got, ok := Find(samples, name, labelSub)
		if !ok {
			t.Fatalf("sample %s{%s} missing", name, labelSub)
		}
		if got != want {
			t.Errorf("%s{%s} = %v, want %v", name, labelSub, got, want)
		}
	}
	check("rt_events_total", "", 42)
	check("rt_by_kind_total", `kind="a"`, 5)
	check("rt_seconds_count", "", 3)
	check("rt_seconds_sum", "", 5)
	check("rt_seconds_bucket", `le="1"`, 1)
	check("rt_seconds_bucket", `le="2"`, 2)
	check("rt_seconds_bucket", `le="+Inf"`, 3)
}

// TestConcurrentHammer drives every metric kind from many goroutines
// while a reader renders — the -race proof that hot-path increments
// and exposition are data-race free.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("hammer_total", "h")
	g := r.NewGauge("hammer_gauge", "h")
	h := r.NewHistogram("hammer_seconds", "h", nil)
	child := r.NewCounterVec("hammer_vec_total", "h", "k").With("x")

	const goroutines, iters = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j%10) / 1000)
				child.Inc()
			}
		}()
	}
	stop := make(chan struct{})
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		defer rd.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				r.WriteText(&sb)
			}
		}
	}()
	wg.Wait()
	close(stop)
	rd.Wait()

	const want = goroutines * iters
	if c.Value() != want {
		t.Errorf("counter = %d, want %d", c.Value(), want)
	}
	if g.Value() != want {
		t.Errorf("gauge = %d, want %d", g.Value(), want)
	}
	if h.Count() != want {
		t.Errorf("histogram count = %d, want %d", h.Count(), want)
	}
	if child.Value() != want {
		t.Errorf("vec child = %d, want %d", child.Value(), want)
	}
}

// TestHotPathAllocFree proves the per-event operations allocate
// nothing — the property the instrumented zero-alloc converge core
// inherits.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("alloc_total", "a")
	g := r.NewGauge("alloc_gauge", "a")
	h := r.NewHistogram("alloc_seconds", "a", nil)
	child := r.NewCounterVec("alloc_vec_total", "a", "k").With("x")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.Add(-1)
		h.Observe(0.004)
		child.Inc()
	}); n != 0 {
		t.Errorf("hot-path ops allocate %v per run, want 0", n)
	}
}

// TestRegistryIdempotent checks same-name registration returns the
// same handle and cross-kind collisions panic.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("idem_total", "x")
	b := r.NewCounter("idem_total", "x")
	if a != b {
		t.Error("re-registering a counter returned a different handle")
	}
	defer func() {
		if recover() == nil {
			t.Error("cross-kind re-registration did not panic")
		}
	}()
	r.NewGauge("idem_total", "x")
}

func TestTraceSpans(t *testing.T) {
	ctx, tr := WithTrace(t.Context(), "t1")
	ctx2, outer := StartSpan(ctx, "outer")
	_, inner := StartSpan(ctx2, "inner")
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()

	recs := tr.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d spans, want 2", len(recs))
	}
	if recs[0].Name != "inner" || recs[0].Parent != "outer" {
		t.Errorf("inner span = %+v, want name inner parent outer", recs[0])
	}
	if recs[1].Name != "outer" || recs[1].Parent != "" {
		t.Errorf("outer span = %+v, want name outer no parent", recs[1])
	}
	if recs[0].DurMs <= 0 {
		t.Errorf("inner duration %v, want > 0", recs[0].DurMs)
	}

	var sb strings.Builder
	if err := tr.WriteNDJSON(&sb); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("NDJSON lines = %d, want 2 spans + summary", len(lines))
	}
	if !strings.Contains(lines[2], `"total_ms"`) {
		t.Errorf("last line %q is not the summary", lines[2])
	}
}

// TestNilSpanSafe: the un-traced path must tolerate nil spans — every
// instrumented call site relies on it.
func TestNilSpanSafe(t *testing.T) {
	ctx, s := StartSpan(t.Context(), "no-trace")
	if s != nil {
		t.Fatal("StartSpan without a trace returned a non-nil span")
	}
	s.End() // must not panic
	if traceFrom(ctx) != nil {
		t.Error("traceFrom on plain context is non-nil")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().NewCounter("bench_total", "b")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().NewHistogram("bench_seconds", "b", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

// BenchmarkWriteText measures /metrics render latency over a registry
// about the size of the real one.
func BenchmarkWriteText(b *testing.B) {
	r := NewRegistry()
	for _, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		r.NewCounter("bench_"+n+"_total", "b").Add(12345)
		r.NewHistogram("bench_"+n+"_seconds", "b", nil).Observe(0.1)
	}
	b.ReportAllocs()
	var sb strings.Builder
	for i := 0; i < b.N; i++ {
		sb.Reset()
		r.WriteText(&sb)
	}
}
