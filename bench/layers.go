package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/routeviews"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/studyfmt"
	"github.com/policyscope/policyscope/internal/sweep"
	"github.com/policyscope/policyscope/obs"
)

// Pass 2 of a traced run: every layer is called through its public API,
// serially, with one span per call, on the dataset of the workload being
// traced. Each of the six operations is replayed two ways — as the call
// the workload makes (root span "op:<workload>") and taken apart into
// the layer calls underneath it (root span "parts:<workload>", one child
// per call) — so trace.coverage can say how much of the operation the
// layer spans explain.
//
// Every traced run measures every layer, which keeps the per-layer
// metric list the same for all six workloads. The traced workload
// decides the dataset, gets the full sample counts (the others get
// enough for a median), and is the operation trace.coverage describes.

// counterValue reads one sample of the product's metric registry the way
// an operator would: through the text exposition.
func counterValue(name string) float64 {
	var buf bytes.Buffer
	obs.Default.WriteText(&buf)
	samples, err := obs.ParseText(&buf)
	if err != nil {
		return 0
	}
	v, _ := obs.Find(samples, name, "")
	return v
}

type layerRun struct {
	ctx   context.Context
	focus string // the traced workload
	bed   *bed
	cfg   policyscope.Config
	seed  int64
	tmp   string
	rec   *recorder
	out   map[string]float64
	base  *simulate.Engine // a pristine what-if engine, only ever cloned
	nOps  int
	first error
}

func (l *layerRun) fail(err error) {
	if err != nil && l.first == nil {
		l.first = err
	}
}

// span records f as a child of parent and keeps the first error.
func (l *layerRun) span(name string, parent int, f func() error) {
	l.rec.do(name, parent, func() { l.fail(f()) })
}

// root opens a root span for one replayed operation.
func (l *layerRun) root(name string) int {
	l.nOps++
	return l.rec.start(name, -1, l.nOps)
}

// samples is how often an operation of workload op is replayed.
func (l *layerRun) samples(op string, focused, other int) int {
	if l.focus == op {
		return focused
	}
	return other
}

func (l *layerRun) med(name string) float64  { return median(l.rec.durations(name)) }
func (l *layerRun) mean(name string) float64 { return mean(l.rec.durations(name)) }

// coverage is Σ child spans of the taken-apart replays over the time of
// the same operations made as one call.
func (l *layerRun) coverage(op string) float64 {
	whole := sum(l.rec.durations("op:" + op))
	if whole == 0 {
		return 0
	}
	return l.rec.childSum("parts:"+op) / whole
}

func measureLayers(ctx context.Context, wl workload, in *instance, seed int64, tmp string, rec *recorder) (map[string]float64, error) {
	l := &layerRun{ctx: ctx, focus: wl.name, bed: in.bed, cfg: wl.cfg, seed: seed, tmp: tmp, rec: rec, out: map[string]float64{}}
	if l.bed == nil {
		b, err := newBed(ctx, dataset.FromStudy(in.study))
		if err != nil {
			return nil, err
		}
		defer b.close()
		l.bed = b
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	l.out["dataset.session_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	for _, chain := range []func(){l.startChain, l.serveChain, l.sweepChain} {
		if chain(); l.first != nil {
			return nil, l.first
		}
	}
	l.out["trace.coverage"] = l.coverage(wl.name)
	return l.out, nil
}

// startChain replays start_cold and start_cached: twice each when it is
// the traced workload (one sample of a 1-2 s operation is at the mercy
// of the host), once otherwise.
func (l *layerRun) startChain() {
	var (
		cached *dataset.Cached // over the directory the last cold start filled
		study  *policyscope.Study
		blob   []byte
		fs     *studyfmt.Study
	)
	for i := l.samples("start_cold", 2, 1); i > 0; i-- {
		dir, err := os.MkdirTemp(l.tmp, "layers-")
		if err != nil {
			l.fail(err)
			return
		}
		cached = dataset.NewCached(dataset.NewSynthetic(l.cfg), dir)
		op := l.root("op:start_cold")
		l.span("Cached.Load:miss", op, func() (err error) { study, err = cached.Load(l.ctx); return })
		if l.first != nil {
			return
		}
		l.span("Session.Warm", op, func() error { return warm(study) })
		l.rec.end(op)
	}
	for i := l.samples("start_cached", 2, 1); i > 0; i-- {
		op := l.root("op:start_cached")
		l.span("Cached.Load:hit", op, func() error { _, err := cached.Load(l.ctx); return err })
		l.span("Session.Warm", op, func() error { return warm(study) })
		l.rec.end(op)
	}
	for i := 0; i < 2; i++ {
		l.span("Cached.Load:hit", -1, func() error { _, err := cached.Load(l.ctx); return err })
	}

	// A hit regenerates the topology on a second goroutine while the
	// tables decode; it is the shorter of the two, so it is not on the
	// critical path and has no child span here. Assembly takes the loaded
	// study's own inputs: the same call on the same amount of data.
	for i := l.samples("start_cached", 2, 1); i > 0; i-- {
		var hdr *studyfmt.Header
		parts := l.root("parts:start_cached")
		l.span("os.ReadFile", parts, func() (err error) {
			blob, err = os.ReadFile(filepath.Join(cached.Dir, cached.Key()+".study"))
			return
		})
		l.span("studyfmt.DecodeHeader", parts, func() (err error) { hdr, err = studyfmt.DecodeHeader(blob); return })
		if l.first != nil {
			return
		}
		l.span("studyfmt.DecodeBody", parts, func() (err error) {
			fs, err = hdr.DecodeBody(studyfmt.DecodeOptions{Parallelism: l.cfg.Parallelism, Intern: bgp.NewIntern()})
			return
		})
		l.span("NewStudyFromInputs", parts, func() error {
			_, err := policyscope.NewStudyFromInputs(policyscope.StudyInputs{Config: study.Config, Topo: study.Topo,
				Result: study.Result, Peers: study.Peers, Snapshot: study.Snapshot, Intern: study.Intern})
			return err
		})
		l.span("Study.WhatIfEngine", parts, func() (err error) { l.base, err = study.WhatIfEngine(); return })
		l.rec.end(parts)
	}

	for i := l.samples("start_cold", 2, 1); i > 0; i-- {
		parts := l.root("parts:start_cold")
		in := policyscope.StudyInputs{Config: study.Config, Intern: bgp.NewIntern()}
		l.span("GenerateTopology", parts, func() (err error) {
			in.Topo, in.Peers, err = policyscope.GenerateTopology(l.cfg)
			return
		})
		activations := counterValue("policyscope_converge_activations_total")
		l.span("simulate.Run", parts, func() (err error) {
			in.Result, err = simulate.Run(in.Topo, simulate.Options{
				VantagePoints: in.Peers, Parallelism: l.cfg.Parallelism, Intern: in.Intern})
			return
		})
		l.out["simulate.converge_activations"] = counterValue("policyscope_converge_activations_total") - activations
		l.span("routeviews.Collect", parts, func() (err error) {
			in.Snapshot, err = routeviews.Collect(in.Result, in.Peers, 0)
			return
		})
		l.span("NewStudyFromInputs", parts, func() error { _, err := policyscope.NewStudyFromInputs(in); return err })
		// What the miss encoded is what the entry decodes to.
		l.span("studyfmt.Encode", parts, func() error { _, err := studyfmt.Encode(fs); return err })
		l.span("Study.WhatIfEngine", parts, func() error { _, err := study.WhatIfEngine(); return err })
		l.rec.end(parts)
	}

	o := l.out
	o["topogen.generate_ms"] = l.med("GenerateTopology")
	o["simulate.converge_ms"] = l.med("simulate.Run")
	o["simulate.new_engine_ms"] = l.med("Study.WhatIfEngine")
	o["routeviews.collect_ms"] = l.med("routeviews.Collect")
	o["studyfmt.encode_ms"] = l.med("studyfmt.Encode")
	o["studyfmt.decode_ms"] = l.med("studyfmt.DecodeHeader") + l.med("studyfmt.DecodeBody")
	o["studyfmt.blob_bytes"] = float64(len(blob))
	o["dataset.load_miss_ms"] = l.med("Cached.Load:miss")
	o["dataset.load_hit_ms"] = l.med("Cached.Load:hit")
	o["session.warm_ms"] = l.med("Session.Warm")
}

// serveChain replays serve_query over the whole mix and serve_whatif
// over sampled links.
func (l *layerRun) serveChain() {
	b, ctx := l.bed, l.ctx
	const poolHits = 1000
	t := time.Now()
	for i := 0; i < poolHits; i++ {
		if _, err := b.pool.Session(ctx, ""); err != nil {
			l.fail(err)
			return
		}
	}
	l.out["dataset.pool_session_hit_us"] = float64(time.Since(t).Nanoseconds()) / 1e3 / poolHits

	// request replays one request three ways: over loopback (the
	// operation), into a recorder (the server without the wire), and as
	// the calls the handler makes (the layers under the server). Whichever
	// goes first finds the caches coldest, so the order rotates.
	turn := 0
	request := func(op, path string, body []byte, call func(*policyscope.Session) (any, error)) (size int) {
		ways := []func(){
			func() {
				root := l.root("op:" + op)
				l.span("POST:"+op, root, func() error { _, err := b.post(ctx, path, body); return err })
				l.rec.end(root)
			},
			func() {
				l.span("ServeHTTP:"+op, -1, func() error {
					w := httptest.NewRecorder()
					b.srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
					if w.Code != http.StatusOK {
						return fmt.Errorf("ServeHTTP %s: status %d", path, w.Code)
					}
					return nil
				})
			},
			func() {
				root := l.root("parts:" + op)
				var sess *policyscope.Session
				var res any
				var buf bytes.Buffer
				l.span("Pool.Session", root, func() (err error) { sess, err = b.pool.Session(ctx, ""); return })
				l.span("Session:"+op, root, func() (err error) { res, err = call(sess); return })
				l.span("render_json:"+op, root, func() error { return renderJSON(&buf, res) })
				l.rec.end(root)
				size = buf.Len()
			},
		}
		for k := range ways {
			ways[(turn+k)%len(ways)]()
		}
		turn++
		return size
	}

	var responseBytes []float64
	for round := l.samples("serve_query", 4, 1); round > 0; round-- {
		for _, name := range queryMix {
			n := request("serve_query", "/run/"+name, nil, func(s *policyscope.Session) (any, error) {
				res, err := s.RunJSON(ctx, name, nil)
				return runBody(name, res), err
			})
			responseBytes = append(responseBytes, float64(n))
		}
	}

	scs, err := linkScenarios(ctx, b)
	if err != nil {
		l.fail(err)
		return
	}
	order := perm(l.seed, 1, len(scs))
	for i := l.samples("serve_whatif", 12, 3); i > 0; i-- {
		sc := scs[order[i]]
		var body bytes.Buffer
		l.fail(renderJSON(&body, sc))
		request("serve_whatif", "/whatif", body.Bytes(), func(s *policyscope.Session) (any, error) {
			return s.WhatIf(ctx, sc)
		})
		// What Session.WhatIf does inside, on an engine of our own: the
		// rest of its time is the report it builds around the apply.
		var cl *simulate.Engine
		l.span("Engine.Clone", -1, func() error { cl = l.base.Clone(); return nil })
		l.span("Engine.Apply:whatif", -1, func() error { _, err := cl.Apply(sc); return err })
	}

	o := l.out
	o["session.run_ms"] = l.mean("Session:serve_query")
	o["experiment.render_json_ms"] = l.mean("render_json:serve_query")
	o["experiment.response_bytes"] = mean(responseBytes)
	o["session.whatif_ms"] = l.med("Session:serve_whatif")
	o["session.whatif_report_ms"] = l.med("Session:serve_whatif") - l.med("Engine.Clone") - l.med("Engine.Apply:whatif")
	// The server metrics describe the endpoint of the traced workload.
	ep := "serve_query"
	if l.focus == "serve_whatif" {
		ep = "serve_whatif"
	}
	n := float64(len(l.rec.ids("op:" + ep)))
	o["server.inproc_ms"] = l.mean("ServeHTTP:" + ep)
	o["server.self_ms"] = l.mean("ServeHTTP:"+ep) - l.rec.childSum("parts:"+ep)/n
	o["server.wire_ms"] = l.mean("POST:"+ep) - l.mean("ServeHTTP:"+ep)
}

// sweepChain replays one batch of each sweep workload scenario by
// scenario, and runs the traced one through the executor.
func (l *layerRun) sweepChain() {
	ctx, b := l.ctx, l.bed
	runOp := "sweep_links"
	if l.focus == "sweep_policy" {
		runOp = "sweep_policy"
	}
	var runBatch []simulate.Scenario
	for _, op := range []string{"sweep_links", "sweep_policy"} {
		var families [][]simulate.Scenario
		l.span("sweep.Expand:"+op, -1, func() (err error) { families, err = sweepFamilies[op](ctx, b); return })
		if l.first != nil {
			return
		}
		size := 16
		if op == runOp {
			size = l.samples(op, batchSize, 16)
		}
		batches, err := stridedBatches(families, size)
		if err != nil {
			l.fail(err)
			return
		}
		batch := batches[perm(l.seed, 2, len(batches))[0]]
		checkpoints := counterValue("policyscope_journal_checkpoints_total")
		refused := counterValue("policyscope_journal_rollbacks_unsupported_total")
		l.replaySweep(op, batch)
		if op == runOp {
			runBatch = batch
			l.out["simulate.rollback_refused_share"] =
				(counterValue("policyscope_journal_rollbacks_unsupported_total") - refused) /
					(counterValue("policyscope_journal_checkpoints_total") - checkpoints)
		}
	}

	// run puts the traced batch through the executor. Worker stats
	// arrive from the worker goroutines, hence the mutex.
	run := func(workers, parent int) (wallMs float64, busy time.Duration, reclones int) {
		var mu sync.Mutex
		name := fmt.Sprintf("sweep.Run:j%d", workers)
		l.span(name, parent, func() error {
			_, err := sweep.Run(ctx, l.base, runBatch, sweep.Options{Workers: workers,
				OnWorkerDone: func(ws sweep.WorkerStats) {
					mu.Lock()
					busy += ws.Busy
					reclones += ws.Reclones
					mu.Unlock()
				}})
			return err
		})
		return l.med(name), busy, reclones
	}
	op := l.root("op:" + runOp)
	wall1, busy, reclones := run(1, op)
	l.rec.end(op)
	// What a second worker on a second core would buy: the one measurement
	// made outside the one-core load model.
	procs := runtime.GOMAXPROCS(2)
	wall2, _, _ := run(2, -1)
	runtime.GOMAXPROCS(procs)
	if l.first != nil {
		return
	}
	n := float64(len(runBatch))
	o := l.out
	o["sweep.expand_ms"] = l.med("sweep.Expand:" + runOp)
	o["simulate.clone_ms"] = l.med("Engine.Clone")
	o["simulate.apply_link_ms"] = l.med("Engine.Apply:sweep_links")
	o["simulate.apply_policy_ms"] = l.med("Engine.Apply:sweep_policy")
	o["simulate.rollback_ms"] = l.med("Engine.Rollback:sweep_links")
	o["sweep.impact_ms"] = l.med("sweep.BuildImpact")
	o["sweep.aggregate_us"] = l.med("Aggregator.Add") * 1e3
	o["sweep.executor_overhead_ms"] = (wall1 - l.rec.childSum("parts:"+runOp)) / n
	o["sweep.worker_utilization"] = busy.Seconds() * 1e3 / wall1
	o["sweep.j2_vs_j1"] = wall1 / wall2
	o["sweep.records_per_s"] = n / (wall1 / 1e3)
	o["sweep.reclone_share"] = float64(reclones) / n
}

// replaySweep does by hand, with a span per call, what one executor
// worker does for each scenario of batch: checkpoint, apply, build the
// record, roll back — or take a fresh clone when the journal refuses —
// and fold the record into the aggregate.
func (l *layerRun) replaySweep(op string, batch []simulate.Scenario) {
	root := l.root("parts:" + op)
	agg := sweep.NewAggregator(0)
	var cl *simulate.Engine
	for _, sc := range batch {
		if cl == nil {
			l.span("Engine.Clone", root, func() error { cl = l.base.Clone(); cl.SetParallelism(1); return nil })
		}
		var delta *simulate.Delta
		var imp *sweep.Impact
		l.span("Engine.Checkpoint", root, func() error { cl.Checkpoint(); return nil })
		l.span("Engine.Apply:"+op, root, func() (err error) { delta, err = cl.Apply(sc); return })
		if l.first != nil {
			return
		}
		l.span("sweep.BuildImpact", root, func() error { imp = sweep.BuildImpact(sc, delta, 3); return nil })
		l.span("Engine.Rollback:"+op, root, func() error {
			if !cl.Rollback() {
				cl = nil
			}
			return nil
		})
		l.span("Aggregator.Add", root, func() error { agg.Add(imp); return nil })
	}
	l.rec.end(root)
}
