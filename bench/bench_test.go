package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		pct, value float64
	}{
		{9, 50, 5},          // nothing has ten samples beyond it: the median
		{40, 75, 30},        // p75 leaves exactly 10 beyond; p90 would leave 4
		{100, 90, 90},       // p95 would leave 5
		{200, 95, 190},      // p99 would leave 2
		{1000, 99, 990},     // p99.9 would leave 1
		{10000, 99.9, 9990}, // ten beyond
	} {
		pct, value := tail(ramp(tc.n))
		if pct != tc.pct || value != tc.value {
			t.Errorf("n=%d: tail = p%v %v, want p%v %v", tc.n, pct, value, tc.pct, tc.value)
		}
	}
}

func TestBlockRate(t *testing.T) {
	// Five 1 s blocks of 100 completions each, except block 3: a stall
	// that let 10 through. The median over blocks does not see it.
	var ends []float64
	for b := 0; b < 5; b++ {
		n := 100
		if b == 3 {
			n = 10
		}
		for i := 0; i < n; i++ {
			ends = append(ends, float64(b)+float64(i)/100)
		}
	}
	// 410 completions are fewer than 5*minBlockOps: one block.
	if got := blockRate(ends, 5, 5); got != 410.0/5 {
		t.Errorf("one block: rate %v, want %v", got, 410.0/5)
	}
	for i := 10; i < 100; i++ {
		ends = append(ends, 3.5) // the stalled block catches up late
	}
	ends = append(ends, 4.999, 4.9999)
	if got := blockRate(ends, 5, 5); got != 100 {
		t.Errorf("five blocks: rate %v, want 100", got)
	}
}

func TestClassMedian(t *testing.T) {
	// Three classes at 1, 10 and 100 ms. The window fitted the cheap one
	// in five times and the others once: the plain median says 1 ms, the
	// median request of the mix takes 10.
	class := []int{0, 0, 0, 0, 0, 1, 2}
	lat := []float64{1, 1, 1, 1, 1, 10, 100}
	if got := classMedian(class, lat); got != 10 {
		t.Errorf("classMedian = %v, want 10", got)
	}
	if got := median(lat); got != 1 {
		t.Errorf("median = %v, want 1", got)
	}
	// Every operation its own class: the plain median.
	if got := classMedian([]int{5, 6, 7, 8}, []float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("classMedian over singletons = %v, want 2.5", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := newRecorder()
	r.spans = []spanRecord{
		{Name: "op", Op: 1, Parent: -1, StartMs: 0, EndMs: 10},
		{Name: "a", Op: 1, Parent: 0, StartMs: 1, EndMs: 4},
		{Name: "b", Op: 1, Parent: 0, StartMs: 4, EndMs: 9},
		{Name: "b.inner", Op: 1, Parent: 2, StartMs: 5, EndMs: 6}, // grandchild: not subtracted from op
	}
	if got := r.self(0); got != 2 {
		t.Errorf("self(op) = %v, want 2", got)
	}
	if got := r.self(2); got != 4 {
		t.Errorf("self(b) = %v, want 4", got)
	}
	if got := r.durations("b"); !reflect.DeepEqual(got, []float64{5}) {
		t.Errorf("durations(b) = %v", got)
	}
	var buf bytes.Buffer
	if err := r.writeNDJSON(&buf); err != nil || strings.Count(buf.String(), "\n") != 4 {
		t.Errorf("writeNDJSON: %v, %q", err, buf.String())
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's charset", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, wl := range workloads {
		check(wl.name)
		if len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", wl.name)
		}
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's charset", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the driver reads,
// in step with the tables the program prints from.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	// The driver gates a subset (run time is rationed, README "Load
	// model"); what it lists must be the program's, word for word.
	if len(spec.Workloads) < 2 {
		t.Fatalf("%d workloads in BENCHMARK.json", len(spec.Workloads))
	}
	for _, sw := range spec.Workloads {
		if wl, ok := findWorkload(sw.Name); !ok || wl.why != sw.Why {
			t.Errorf("BENCHMARK.json has %+v, program has %q: %s", sw, wl.name, wl.why)
		}
	}
	strip := func(defs []metricDef) []metricDef {
		out := append([]metricDef{}, defs...)
		for i := range out {
			out[i].moves = ""
		}
		return out
	}
	if !reflect.DeepEqual(spec.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end differs:\n json %+v\n prog %+v", spec.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(spec.PerLayer, strip(perLayer)) {
		t.Errorf("per_layer differs:\n json %+v\n prog %+v", spec.PerLayer, strip(perLayer))
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	s := func(vs ...float64) series { return series{Median: median(vs), Values: vs} }
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b series
		want string
	}{
		{"steady, within bound", lower, s(100, 101, 102), s(105, 106, 107), verdictOK},
		{"steady, beyond bound", lower, s(100, 101, 102), s(115, 116, 117), verdictRegressed},
		{"higher is better, drop beyond bound", higher, s(100, 101, 102), s(85, 86, 87), verdictRegressed},
		{"higher is better, rise", higher, s(100, 101, 102), s(120, 121, 122), verdictOK},
		{"noisy, overlapping", lower, s(90, 100, 120), s(95, 112, 125), verdictUnresolved},
		{"noisy, every run better", lower, s(90, 100, 120), s(70, 80, 89), verdictOK},
		{"noisy, every run worse beyond bound", lower, s(90, 100, 120), s(140, 150, 170), verdictRegressed},
	} {
		if got := judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// small returns wl on the 200-AS preset, so tests finish in seconds.
func small(wl workload) workload {
	wl.cfg = smallConfig
	return wl
}

func TestSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds datasets")
	}
	ctx := context.Background()
	for _, name := range []string{"serve_query", "serve_whatif", "sweep_policy"} {
		wl, _ := findWorkload(name)
		wl = small(wl)
		setup := func(seed int64) *instance {
			t.Helper()
			in, err := wl.setup(ctx, wl.cfg, seed, t.TempDir())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, fails := in.oracle(ctx); len(fails) > 0 {
				t.Fatalf("%s: oracle: %v", name, fails)
			}
			in.close()
			return in
		}
		a, b, c := setup(7), setup(7), setup(8)
		if !reflect.DeepEqual(a.schedule, b.schedule) {
			t.Errorf("%s: seed 7 gave two schedules:\n%v\n%v", name, a.schedule, b.schedule)
		}
		if !reflect.DeepEqual(a.digests, b.digests) {
			t.Errorf("%s: seed 7 gave two digest sets:\n%v\n%v", name, a.digests, b.digests)
		}
		if reflect.DeepEqual(a.schedule, c.schedule) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
}

// TestSmoke runs every workload end to end on the small preset: a 1 s
// untraced window and a 1 s traced run, both of which must verify their
// outputs and report exactly the metrics BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads")
	}
	ctx := context.Background()
	for _, wl := range workloads {
		wl = small(wl)
		t.Run(wl.name, func(t *testing.T) {
			_, res, err := runUntraced(ctx, wl, 42, time.Second, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced: %+v", res)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("untraced: %s = %v, end-to-end metrics are never 0", name, m.Value)
				}
			}
			_, res, err = runTraced(ctx, wl, 42, time.Second, t.TempDir(), "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(res.Metrics) != len(perLayer) {
				t.Errorf("traced: %+v", res)
			}
			wantReclone := 0.0
			if wl.name == "sweep_policy" {
				wantReclone = 1
			}
			if got := res.Metrics["sweep.reclone_share"].Value; got != wantReclone {
				t.Errorf("sweep.reclone_share = %v, want %v", got, wantReclone)
			}
		})
	}
}
