// Command bench is policyscope's benchmark: one seeded harness that
// drives the product only through its packages' public functions and
// the HTTP API of an in-process server behind a loopback listener.
//
//	go run -C bench . -workload serve_query -seed 42 -seconds 20 -trace 0
//	go run -C bench . -workload serve_query -seed 42 -seconds 20 -trace 1
//	go run -C bench . -all > bench/results/seed42.json
//	go run -C bench . -compare results/a.json results/b.json
//	go run -C bench . -list
//
// A single run prints two lines: the run's detail (sample count, output
// digests, first failures) and, last, the result object the benchmark
// contract asks for. README.md explains every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/routeviews"
	"github.com/policyscope/policyscope/internal/simulate"
)

func main() {
	// One core's worth of work, whatever the machine: see the load model
	// in workloads.go.
	runtime.GOMAXPROCS(1)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "workload to run (see -list)")
		seed         = fs.Int64("seed", 42, "picks the sampled links, prefixes, attackers and the request order")
		seconds      = fs.Int("seconds", 20, "length of the measured window")
		trace        = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		spans        = fs.String("spans", "", "traced run: write every span to this file as NDJSON")
		all          = fs.Bool("all", false, "run every workload, untraced three times and traced once, and print one document")
		compare      = fs.Bool("compare", false, "compare two -all documents: bench -compare a.json b.json")
		doList       = fs.Bool("list", false, "print every workload and metric name")
		ladder       = fs.Bool("ladder", false, "one shot on the builtin large dataset (run by -all)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *doList:
		list(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two result documents"))
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *all:
		doc, err := runAll(ctx, *seed, *seconds, stderr)
		if err != nil {
			return fail(err)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return fail(err)
		}
		if !doc.correct() {
			return 1
		}
		return 0
	case *ladder:
		m, err := runLadder()
		if err != nil {
			return fail(err)
		}
		return emit(stdout, runDetail{Workload: "ladder"}, runResult{Correct: true, Attempted: 1, Metrics: m})
	}
	wl, ok := findWorkload(*workloadName)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q (see -list)", *workloadName))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fail(errors.New("-seconds must be at least 1 and -trace 0 or 1"))
	}
	tmp, err := os.MkdirTemp(".", ".tmp-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	window := time.Duration(*seconds) * time.Second
	var (
		detail runDetail
		result runResult
	)
	if *trace == 1 {
		detail, result, err = runTraced(ctx, wl, *seed, window, tmp, *spans)
	} else {
		detail, result, err = runUntraced(ctx, wl, *seed, window, tmp)
	}
	if err != nil {
		return fail(err)
	}
	detail.Seconds, detail.Trace = *seconds, *trace
	for _, e := range detail.Errors {
		fmt.Fprintln(stderr, "bench: FAILED:", e)
	}
	return emit(stdout, detail, result)
}

// runDetail is the first line a run prints: what the result line has no
// room for.
type runDetail struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    int               `json:"trace"`
	Samples  int               `json:"samples"` // operations inside the measured window
	Digests  map[string]string `json:"digests,omitempty"`
	Errors   []string          `json:"errors,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a run prints, in the contract's shape.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func emit(stdout io.Writer, d runDetail, r runResult) int {
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(d); err != nil {
		return 1
	}
	if err := enc.Encode(r); err != nil || !r.Correct {
		return 1
	}
	return 0
}

// withUnits attaches each value's unit and checks the set is exactly defs.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d defined", len(values), len(defs))
	}
	return out, nil
}

// setupRepeats is how often an untraced run sets the workload up;
// setup_s is the median, and the last instance is the one driven.
const setupRepeats = 3

// errLimit caps how many failures a run describes.
const errLimit = 5

// tally accumulates attempted and failed checks and operations.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) add(attempted int, failures []error) {
	t.attempted += attempted
	for _, err := range failures {
		if err == nil {
			continue
		}
		t.failed++
		if len(t.errs) < errLimit {
			t.errs = append(t.errs, err.Error())
		}
	}
}

func (t *tally) window(w windowResult) {
	t.attempted += len(w.LatMs)
	t.failed += w.Failed
	if w.FirstErr != nil && len(t.errs) < errLimit {
		t.errs = append(t.errs, fmt.Sprintf("%d operations failed, first: %v", w.Failed, w.FirstErr))
	}
}

// runUntraced measures the end-to-end metrics: set-up (timed), oracle,
// a discarded warm-up of a tenth of the window, then the window.
func runUntraced(ctx context.Context, wl workload, seed int64, window time.Duration, tmp string) (runDetail, runResult, error) {
	var (
		in     *instance
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if in != nil {
			in.close()
		}
		t := time.Now()
		var err error
		if in, err = wl.setup(ctx, wl.cfg, seed, tmp); err != nil {
			return runDetail{}, runResult{}, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer in.close()

	var t tally
	t.add(in.oracle(ctx))
	_, next := closedLoop(ctx, window/10, 0, in.op)
	w, _ := closedLoop(ctx, window, next, in.op)
	t.window(w)
	if err := ctx.Err(); err != nil {
		return runDetail{}, runResult{}, err
	}

	metrics, err := withUnits(endToEnd, map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       blockRate(w.EndS, w.ElapsedS, windowBlocks),
		"op_p50_ms":       classMedian(w.Class, w.LatMs),
		"alloc_kb_per_op": float64(w.AllocBytes) / 1024 / float64(len(w.LatMs)),
	})
	if err != nil {
		return runDetail{}, runResult{}, err
	}
	return runDetail{Workload: wl.name, Seed: seed, Samples: len(w.LatMs), Digests: in.digests, Errors: t.errs},
		runResult{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// runTraced measures the per-layer metrics. Pass 1 drives the workload
// for half the untraced length with every operation made twice back to
// back, once bare and once inside a root span, alternating which goes
// first: the median paired difference is what tracing costs, free of the
// spread between operations. Pass 2 (layers.go) takes the operations
// apart.
func runTraced(ctx context.Context, wl workload, seed int64, window time.Duration, tmp, spanFile string) (runDetail, runResult, error) {
	in, err := wl.setup(ctx, wl.cfg, seed, tmp)
	if err != nil {
		return runDetail{}, runResult{}, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	defer in.close()
	rec := newRecorder()
	var (
		lat      []float64 // every execution
		overhead []float64 // per pair, spanned against bare, in percent
	)
	timed := func(ctx context.Context, i int, spanned bool) (int, float64, error) {
		t := time.Now()
		var id int
		if spanned {
			id = rec.start(wl.name, -1, i)
		}
		class, err := in.op(ctx, i)
		if spanned {
			rec.end(id)
		}
		return class, float64(time.Since(t).Nanoseconds()) / 1e6, err
	}
	paired := func(ctx context.Context, i int) (class int, err error) {
		var ms [2]float64
		var errs [2]error
		for k := 0; k < 2; k++ {
			spanned := (i+k)%2 == 1
			class, ms[btoi(spanned)], errs[k] = timed(ctx, i, spanned)
		}
		lat = append(lat, ms[0], ms[1])
		overhead = append(overhead, (ms[1]/ms[0]-1)*100)
		return class, errors.Join(errs[:]...)
	}
	_, next := closedLoop(ctx, window/10, 0, in.op)
	requests := counterValue("policyscope_http_requests_total")
	shed := counterValue("policyscope_http_shed_total")
	pass1, _ := closedLoop(ctx, window/2, next, paired)
	requests = counterValue("policyscope_http_requests_total") - requests
	shed = counterValue("policyscope_http_shed_total") - shed
	var t tally
	t.window(pass1)

	values, err := measureLayers(ctx, wl, in, seed, tmp, rec)
	if err != nil {
		return runDetail{}, runResult{}, fmt.Errorf("%s: layers: %w", wl.name, err)
	}
	if err := ctx.Err(); err != nil {
		return runDetail{}, runResult{}, err
	}
	values["trace.overhead_pct"] = median(overhead)
	values["server.op_tail_pct"], values["server.op_tail_ms"] = tail(lat)
	values["server.shed_share"] = 0
	if requests > 0 {
		values["server.shed_share"] = shed / requests
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	values["process.gc_cpu_share"] = ms.GCCPUFraction
	if values["process.peak_rss_mb"], err = peakRSSMiB(); err != nil {
		return runDetail{}, runResult{}, err
	}
	metrics, err := withUnits(perLayer, values)
	if err != nil {
		return runDetail{}, runResult{}, err
	}
	if spanFile != "" {
		f, err := os.Create(spanFile)
		if err != nil {
			return runDetail{}, runResult{}, err
		}
		if err := errors.Join(rec.writeNDJSON(f), f.Close()); err != nil {
			return runDetail{}, runResult{}, err
		}
	}
	return runDetail{Workload: wl.name, Seed: seed, Samples: len(lat), Digests: in.digests, Errors: t.errs},
		runResult{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// peakRSSMiB is the process's resident-set high-water mark (Linux
// reports ru_maxrss in KiB).
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024, err
}

// runLadder is the size-ladder rung: one cold convergence of the builtin
// "large" dataset (2000 ASes, 56 peers) and the heap one warmed session
// of it holds. Reported by -all; too slow to repeat in every run.
func runLadder() (map[string]metricValue, error) {
	cfg := largeConfig
	in := policyscope.StudyInputs{Config: cfg, Intern: bgp.NewIntern()}
	var err error
	if in.Topo, in.Peers, err = policyscope.GenerateTopology(cfg); err != nil {
		return nil, err
	}
	t := time.Now()
	in.Result, err = simulate.Run(in.Topo, simulate.Options{VantagePoints: in.Peers, Intern: in.Intern})
	if err != nil {
		return nil, err
	}
	converge := time.Since(t)
	if in.Snapshot, err = routeviews.Collect(in.Result, in.Peers, 0); err != nil {
		return nil, err
	}
	study, err := policyscope.NewStudyFromInputs(in)
	if err != nil {
		return nil, err
	}
	sess := policyscope.NewSessionFromStudy(study)
	if err := sess.Warm(); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(sess)
	return map[string]metricValue{
		"simulate.converge_large_ms":    {Value: float64(converge.Nanoseconds()) / 1e6, Unit: "ms"},
		"dataset.session_heap_large_mb": {Value: float64(ms.HeapAlloc) / (1 << 20), Unit: "MiB"},
	}, nil
}
