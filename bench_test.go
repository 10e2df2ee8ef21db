package policyscope

// The benchmark harness: one benchmark per catalog experiment
// (regenerating the experiment from a shared converged study), the
// decision-process/propagation ablations, and the scenario-engine
// benchmarks comparing incremental re-convergence against full
// resimulation (the recorded trajectory lives in bench/). Run with:
//
//	go test -bench=. -benchmem .

import (
	"context"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/core"
	"github.com/policyscope/policyscope/internal/gaorelation"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/sweep"
	"github.com/policyscope/policyscope/internal/topogen"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
)

// sharedStudy amortizes generation+simulation across benchmarks; each
// benchmark then measures its experiment's analysis cost.
func sharedStudy(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.NumASes = 800
		cfg.Seed = 42
		cfg.CollectorPeers = 24
		cfg.LookingGlassASes = 12
		s, err := NewStudy(cfg)
		if err != nil {
			b.Fatalf("study: %v", err)
		}
		benchStudy = s
	})
	if benchStudy == nil {
		b.Skip("study construction failed earlier")
	}
	return benchStudy
}

// BenchmarkExperiment measures every catalog experiment with its default
// parameters, by name through Session.Run — registering an experiment is
// what benchmarks it. Each iteration wraps the shared converged study in
// a fresh session, so an op is the experiment's whole analysis (for the
// what-if family including the base engine), never a memo hit.
func BenchmarkExperiment(b *testing.B) {
	s := sharedStudy(b)
	for _, info := range Experiments() {
		b.Run(info.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := NewSessionFromStudy(s).Run(context.Background(), info.Name, nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Render(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- scenario engine ------------------------------------------------------

// BenchmarkScenarioIncremental measures the scenario engine's
// incremental re-convergence for a single link failure (alternating
// failure and restoration so every iteration starts from a converged
// state). The subject is Study.FailoverScenario's — the same what-if
// RunAll reports. Compare against BenchmarkScenarioFullResim: the
// acceptance bar for the incremental path is a ≥5× speedup.
func BenchmarkScenarioIncremental(b *testing.B) {
	s := sharedStudy(b)
	fail, stub, provider, ok := s.FailoverScenario()
	if !ok {
		b.Fatal("no failover subject")
	}
	rel := s.Topo.Graph.Rel(stub, provider)
	eng, err := simulate.NewEngine(s.Topo, simulate.Options{
		VantagePoints: s.Peers,
		Parallelism:   s.Config.Parallelism,
	})
	if err != nil {
		b.Fatal(err)
	}
	restore := simulate.Scenario{Events: []simulate.Event{simulate.RestoreLink(stub, provider, rel)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := fail
		if i%2 == 1 {
			sc = restore
		}
		if _, err := eng.Apply(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioFullResim is the baseline the incremental path is
// judged against: the same single-link-failure what-if answered by
// resimulating the mutated topology from scratch.
func BenchmarkScenarioFullResim(b *testing.B) {
	s := sharedStudy(b)
	fail, _, _, ok := s.FailoverScenario()
	if !ok {
		b.Fatal("no failover subject")
	}
	mutated := s.Topo.Clone()
	if err := fail.ApplyToTopology(mutated); err != nil {
		b.Fatal(err)
	}
	opts := simulate.Options{VantagePoints: s.Peers, Parallelism: s.Config.Parallelism}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := simulate.Run(mutated, opts)
		if err != nil || len(res.Tables) == 0 {
			b.Fatalf("err %v", err)
		}
	}
}

// ---- sweep fleet ----------------------------------------------------------

var (
	sweepBenchOnce      sync.Once
	sweepBenchBase      *simulate.Engine
	sweepBenchScenarios []simulate.Scenario
)

// sharedSweep memoizes the 800-AS base engine and the full
// all-single-link-failures scenario list the sweep benchmarks share.
func sharedSweep(b *testing.B) (*simulate.Engine, []simulate.Scenario) {
	s := sharedStudy(b)
	sweepBenchOnce.Do(func() {
		base, err := simulate.NewEngine(s.Topo, simulate.Options{VantagePoints: s.Peers})
		if err != nil {
			b.Fatalf("engine: %v", err)
		}
		scenarios, err := sweep.Expand(context.Background(), base.Topology(), sweep.Spec{
			Generators: []sweep.Generator{{Kind: sweep.KindAllSingleLinkFailures}},
		})
		if err != nil {
			b.Fatalf("expand: %v", err)
		}
		sweepBenchBase, sweepBenchScenarios = base, scenarios
	})
	if sweepBenchBase == nil {
		b.Skip("sweep setup failed earlier")
	}
	return sweepBenchBase, sweepBenchScenarios
}

// BenchmarkSweepSerialEngine is the pre-existing batch path: answering
// each sweep scenario with its own full engine (one complete
// resimulation per scenario — what running the fleet through
// cmd/simulate -scenario or Study.WhatIf per scenario costs). ns/op is
// the serial per-scenario price the sweep executor is judged against.
// The full sweep is infeasible at ~4.5s per scenario, so -benchtime
// sizes a sample, strided across the scenario list to avoid the
// low-ASN tier-1 links the canonical ordering fronts; the cost is
// dominated by the full resimulation, which is scenario-independent.
func BenchmarkSweepSerialEngine(b *testing.B) {
	s := sharedStudy(b)
	_, scenarios := sharedSweep(b)
	opts := simulate.Options{VantagePoints: s.Peers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := simulate.NewEngine(s.Topo, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sweep.Apply(eng, scenarios[(i*serialSampleStride)%len(scenarios)], 3); err != nil {
			b.Fatal(err)
		}
	}
}

// serialSampleStride spreads the serial sample across the scenario
// list (prime, so it cycles any realistic scenario count).
const serialSampleStride = 997

// benchmarkSweepExecutor runs the full all-single-link-failures sweep
// per op and additionally reports the per-scenario cost, the number to
// compare across worker counts and against the serial baseline.
// utilization is
// sum(per-worker busy time) / (workers × wall): ~1.0 means the shards
// computed the whole time, lower means workers idled — the diagnostic
// that tells contention apart from "machine has fewer cores than -j".
func benchmarkSweepExecutor(b *testing.B, workers int) {
	base, scenarios := sharedSweep(b)
	runSweepExecutor(b, base, scenarios, workers)
}

func runSweepExecutor(b *testing.B, base *simulate.Engine, scenarios []simulate.Scenario, workers int) {
	var busy atomic.Int64
	opts := sweep.Options{Workers: workers, OnWorkerDone: func(ws sweep.WorkerStats) {
		busy.Add(int64(ws.Busy))
	}}
	effective := opts.EffectiveWorkers(len(scenarios))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := sweep.Run(context.Background(), base, scenarios, opts)
		if err != nil {
			b.Fatal(err)
		}
		if agg.Scenarios != len(scenarios) {
			b.Fatalf("ran %d of %d scenarios", agg.Scenarios, len(scenarios))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(scenarios)), "ns/scenario")
	b.ReportMetric(float64(len(scenarios)), "scenarios")
	b.ReportMetric(float64(busy.Load())/float64(b.Elapsed().Nanoseconds()*int64(effective)), "utilization")
}

func BenchmarkSweepExecutorJ1(b *testing.B) { benchmarkSweepExecutor(b, 1) }

func BenchmarkSweepExecutorJ8(b *testing.B) { benchmarkSweepExecutor(b, 8) }

// BenchmarkSweepExecutorPolicyJ1 is the executor on the policy and prefix
// families — hijacks, local-pref flips, prefix withdrawals, no-upstream
// flips — each scenario applied and rolled back on a scratch engine the
// worker keeps. One op is a 64-scenario batch, sixteen per family strided
// across the family like the bench/ harness's sweep_policy workload;
// -benchmem shows what an apply writes and the journal keeps.
func BenchmarkSweepExecutorPolicyJ1(b *testing.B) {
	base, _ := sharedSweep(b)
	topo := base.Topology()
	byDegree := append([]bgp.ASN(nil), topo.Order...)
	sort.SliceStable(byDegree, func(i, j int) bool {
		return topo.Graph.Degree(byDegree[i]) > topo.Graph.Degree(byDegree[j])
	})
	var flips []sweep.Generator
	for _, as := range byDegree[:8] {
		flips = append(flips, sweep.Generator{Kind: sweep.KindLocalPrefFlips, AS: as, Values: []uint32{50, 200}})
	}
	attackers := make([]bgp.ASN, 16)
	for i := range attackers {
		attackers[i] = topo.Order[i*len(topo.Order)/len(attackers)]
	}
	const perFamily = 16
	var batch []simulate.Scenario
	for _, gens := range [][]sweep.Generator{
		{{Kind: sweep.KindHijacks, Attackers: attackers}},
		flips,
		{{Kind: sweep.KindPrefixWithdrawals}},
		{{Kind: sweep.KindNoUpstreamFlips}},
	} {
		family, err := sweep.Expand(context.Background(), topo, sweep.Spec{Generators: gens})
		if err != nil {
			b.Fatalf("expand %s: %v", gens[0].Kind, err)
		}
		if len(family) < perFamily {
			b.Fatalf("family %s has %d scenarios, need %d", gens[0].Kind, len(family), perFamily)
		}
		for j := 0; j < perFamily; j++ {
			batch = append(batch, family[j*(len(family)/perFamily)])
		}
	}
	runSweepExecutor(b, base, batch, 1)
}

// ---- session serving ------------------------------------------------------

// BenchmarkSessionConcurrentQueries measures mixed-query throughput on
// one shared Session — the policyscoped serving pattern. Each op is one
// registry query, rotating through cheap table scans, path-index-heavy
// verification analyses and what-if scenarios answered on copy-on-write
// engine clones; ops run from parallel goroutines.
func BenchmarkSessionConcurrentQueries(b *testing.B) {
	s := sharedStudy(b)
	se := NewSessionFromStudy(s)
	queries := []struct {
		name   string
		params any
	}{
		{"table2", nil},
		{"table5", nil},
		{"table7", &ProvidersParams{Providers: 3}},
		{"case3", &ProvidersParams{Providers: 3}},
		{"table10", &ProvidersParams{Providers: 3}},
		{"atoms", nil},
		{"decision", nil},
		{"whatif", &WhatIfParams{MaxRows: 5}},
	}
	// Warm the lazy gates (path index, base what-if engine) so the
	// benchmark measures steady-state throughput, not first-touch
	// construction.
	for _, q := range queries {
		if _, err := se.Run(context.Background(), q.name, q.params); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := queries[i%len(queries)]
			i++
			if _, err := se.Run(context.Background(), q.name, q.params); err != nil {
				// b.Fatal must not run off the benchmark goroutine.
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// ---- ablations ------------------------------------------------------------

// BenchmarkAblationDecisionProcess compares full 7-step selection against
// a localpref-only truncation across the whole propagation.
func BenchmarkAblationDecisionProcess(b *testing.B) {
	topo, err := topogen.Generate(topogen.DefaultConfig(300, 9))
	if err != nil {
		b.Fatal(err)
	}
	vantage := topo.Order[:8]
	for _, bench := range []struct {
		name  string
		depth bgp.DecisionStep
	}{
		{"full7step", 0},
		{"localprefOnly", bgp.StepLocalPref},
		{"pathLength", bgp.StepASPathLen},
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := simulate.Run(topo, simulate.Options{
					VantagePoints: vantage,
					DecisionDepth: bench.depth,
				})
				if err != nil || len(res.Tables) == 0 {
					b.Fatalf("err %v", err)
				}
			}
		})
	}
}

// BenchmarkAblationBestVsAllRoutes compares the paper's best-routes-only
// SA detection against scanning full candidate sets.
func BenchmarkAblationBestVsAllRoutes(b *testing.B) {
	s := sharedStudy(b)
	a := &core.ExportAnalyzer{Graph: s.Graph}
	peer := s.TierOneVantages(1)[0]
	b.Run("bestOnly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := a.SAPrefixes(s.PeerView(peer))
			if res.ConePrefixes == 0 {
				b.Fatal("empty cone")
			}
		}
	})
	b.Run("allCandidates", func(b *testing.B) {
		rib := s.Result.Tables[peer]
		for i := 0; i < b.N; i++ {
			// Build a view per candidate rank and run detection on each:
			// the cost of not exploiting the best-route observation.
			n := 0
			for _, prefix := range rib.Prefixes() {
				for range rib.Candidates(prefix) {
					n++
				}
			}
			view := core.ViewFromRIB(rib)
			res := a.SAPrefixes(view)
			if res.ConePrefixes == 0 || n == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// BenchmarkAblationRelationshipSource compares SA detection driven by
// ground truth against Gao-inferred relationships (the Section 4.3
// error pathway).
func BenchmarkAblationRelationshipSource(b *testing.B) {
	s := sharedStudy(b)
	peer := s.TierOneVantages(1)[0]
	view := s.PeerView(peer)
	b.Run("groundTruth", func(b *testing.B) {
		a := &core.ExportAnalyzer{Graph: s.Topo.Graph}
		for i := 0; i < b.N; i++ {
			a.SAPrefixes(view)
		}
	})
	b.Run("gaoInferred", func(b *testing.B) {
		a := &core.ExportAnalyzer{Graph: s.Inference().Graph}
		for i := 0; i < b.N; i++ {
			a.SAPrefixes(view)
		}
	})
}

// BenchmarkAblationPropagation compares policy-rich propagation against
// the import-policy-free (shortest-path) baseline of Section 4.1.
func BenchmarkAblationPropagation(b *testing.B) {
	topo, err := topogen.Generate(topogen.DefaultConfig(300, 10))
	if err != nil {
		b.Fatal(err)
	}
	vantage := topo.Order[:8]
	b.Run("withImportPolicy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := simulate.Run(topo, simulate.Options{VantagePoints: vantage}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shortestPath", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := simulate.Run(topo, simulate.Options{
				VantagePoints:      vantage,
				IgnoreImportPolicy: true,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRelationshipInference measures Gao inference over the study's
// path set.
func BenchmarkRelationshipInference(b *testing.B) {
	s := sharedStudy(b)
	paths := s.Snapshot.AllPaths()
	opts := gaorelation.DefaultOptions()
	opts.VantagePoints = s.Peers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inf := gaorelation.Infer(paths, opts)
		if inf.Graph.NumEdges() == 0 {
			b.Fatal("no edges")
		}
	}
}

// BenchmarkEndToEndStudy measures the full pipeline (generation through
// collection) at a smaller scale.
func BenchmarkEndToEndStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.NumASes = 300
		cfg.Seed = int64(100 + i)
		cfg.CollectorPeers = 12
		s, err := NewStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := NewSessionFromStudy(s).RunAll(context.Background(), io.Discard, RunAllOptions{
			TierOneProviders: 3, Table6Rows: 8, Table6MinPrefixes: 2,
			DailyEpochs: 0, HourlyEpochs: 0, Routers: 6, DriftRouters: 1, Figure9ASes: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMRTRoundTrip measures snapshot serialization.
func BenchmarkMRTRoundTrip(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Snapshot.WriteMRT(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
