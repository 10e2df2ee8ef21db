package policyscope

// inferops.go implements the inference-bakeoff experiments over the
// infer registry: inferbakeoff runs the registered algorithms side by
// side (scored against ground truth on demand, pairwise-agreement
// matrixed always), and inferensemble samples concrete relationship
// assignments from a probabilistic algorithm's posterior and pushes
// each through the convergence engine and sweep executor to put spread
// bars on the downstream metrics. Registration lives in registry.go,
// result types in results.go.

import (
	"context"
	"fmt"
	"math"

	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/infer"
	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/atoms"
	"github.com/policyscope/policyscope/internal/routeviews"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/sweep"
)

// runInferBakeoff executes the bakeoff: every selected algorithm over
// the session's observed paths, summarized, optionally scored, and
// pairwise-compared. The default (unscored) result depends only on the
// collector snapshot, so it is byte-identical between a synthetic
// study and an MRT import of its snapshot like every other
// snapshot-capable experiment.
func runInferBakeoff(ctx context.Context, se *Session, s *Study, p InferBakeoffParams) (experiment.Result, error) {
	algos := p.Algos
	if len(algos) == 0 {
		algos = infer.Default.Names()
	}
	// Validate every name before any inference.
	entries := make(map[string]*infer.Algorithm, len(algos))
	for _, name := range algos {
		a, err := infer.Default.Lookup(name)
		if err != nil {
			return nil, &experiment.ParamError{Name: "inferbakeoff", Err: err}
		}
		entries[name] = a
	}
	if p.Score && !s.HasGroundTruth() {
		return nil, &NeedsGroundTruthError{Op: "inferbakeoff scoring"}
	}
	res := &InferBakeoffResult{Scored: p.Score, Paths: len(s.SnapshotPaths())}
	outs := make(map[string]*infer.Output, len(algos))
	for _, name := range algos {
		out, err := se.Infer(ctx, name, nil)
		if err != nil {
			return nil, err
		}
		outs[name] = out
		row := InferAlgoSummary{
			Name:          name,
			Probabilistic: entries[name].Probabilistic,
			ASes:          out.Graph.NumNodes(),
			Edges:         out.Graph.NumEdges(),
		}
		for _, e := range out.Graph.Edges() {
			switch e.Rel {
			case asgraph.RelPeer:
				row.P2P++
			case asgraph.RelSibling:
				row.Siblings++
			default:
				row.P2C++
			}
		}
		if p.Score {
			row.Score = infer.Score(out.Graph, s.Topo.Graph)
		}
		res.Algorithms = append(res.Algorithms, row)
	}
	for i, a := range algos {
		for _, b := range algos[i+1:] {
			res.Agreement = append(res.Agreement, InferAgreementCell{
				A: a, B: b, Agreement: infer.Agree(outs[a].Graph, outs[b].Graph),
			})
		}
	}
	return res, nil
}

// ensembleSweepSpec is the per-sample blast-radius probe: the first max
// single-link failures in canonical edge order, identical for every
// sample because relationship flips never change the adjacency.
func ensembleSweepSpec(max int) sweep.Spec {
	return sweep.Spec{
		Name:       "ensemble-single-link-failures",
		Generators: []sweep.Generator{{Kind: sweep.KindAllSingleLinkFailures, Max: max}},
	}
}

// overlayRelationships rewrites g's annotations to match the sampled
// graph wherever both carry the edge, returning how many edges
// changed. Unobserved edges keep their original annotation: the sample
// only expresses beliefs about links the paths actually crossed.
func overlayRelationships(g, sampled *asgraph.Graph) (int, error) {
	flipped := 0
	for _, e := range sampled.Edges() {
		cur := g.Rel(e.A, e.B)
		if cur == asgraph.RelNone || cur == e.Rel {
			continue
		}
		g.RemoveEdge(e.A, e.B)
		if err := g.AddEdge(e.A, e.B, e.Rel); err != nil {
			return flipped, fmt.Errorf("policyscope: ensemble overlay %d-%d: %w", e.A, e.B, err)
		}
		flipped++
	}
	return flipped, nil
}

// runInferEnsemble executes the posterior-ensemble experiment.
func runInferEnsemble(ctx context.Context, se *Session, s *Study, p InferEnsembleParams) (experiment.Result, error) {
	if p.Algo == "" {
		p.Algo = "pari"
	}
	if p.Samples <= 0 {
		p.Samples = 5
	}
	if p.Samples > 64 {
		p.Samples = 64
	}
	a, err := infer.Default.Lookup(p.Algo)
	if err != nil {
		return nil, &experiment.ParamError{Name: "inferensemble", Err: err}
	}
	if !a.Probabilistic {
		return nil, &experiment.ParamError{Name: "inferensemble",
			Err: fmt.Errorf("algorithm %q has no posterior to sample", p.Algo)}
	}
	out, err := se.Infer(ctx, p.Algo, nil)
	if err != nil {
		return nil, err
	}
	res := &InferEnsembleResult{
		Algo: p.Algo, Seed: p.Seed, SweepMax: p.SweepMax,
		PosteriorEdges: len(out.Posterior),
	}

	// Base row: the study's own converged state and (when sweeping) the
	// pristine base engine.
	baseStats := atoms.Compute(s.Snapshot.Table, s.Peers).Stats()
	res.Base = EnsembleSample{
		Index: -1, Seed: 0,
		Atoms: baseStats.Atoms, MultiPrefixAtoms: baseStats.MultiPrefixAtoms,
	}
	if p.SweepMax > 0 {
		baseEng, err := se.baseEngine()
		if err != nil {
			return nil, err
		}
		scenarios, err := sweep.Expand(ctx, baseEng.Topology(), ensembleSweepSpec(p.SweepMax))
		if err != nil {
			return nil, err
		}
		res.SweepScenarios = len(scenarios)
		agg, err := sweep.Run(ctx, baseEng, scenarios, sweep.Options{Workers: p.Workers})
		if err != nil {
			return nil, err
		}
		res.Base.SweepShiftedASes = agg.ShiftedASes
		res.Base.SweepLostReachPairs = agg.LostReachPairs
	}

	graphs := infer.SampleEnsemble(out.Posterior, p.Seed, p.Samples)
	for i, g := range graphs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		topo := s.Topo.Clone()
		flipped, err := overlayRelationships(topo.Graph, g)
		if err != nil {
			return nil, err
		}
		eng, err := simulate.NewEngine(topo, simulate.Options{
			VantagePoints: s.Peers,
			Parallelism:   s.Config.Parallelism,
			Intern:        s.Intern,
		})
		if err != nil {
			return nil, err
		}
		row := EnsembleSample{
			Index: i, Seed: p.Seed + int64(i),
			FlippedEdges: flipped, Unconverged: eng.UnconvergedCount(),
		}
		snap, err := routeviews.Collect(eng.Result(), s.Peers, 0)
		if err != nil {
			return nil, err
		}
		st := atoms.Compute(snap.Table, s.Peers).Stats()
		row.Atoms = st.Atoms
		row.MultiPrefixAtoms = st.MultiPrefixAtoms
		if p.SweepMax > 0 {
			scenarios, err := sweep.Expand(ctx, eng.Topology(), ensembleSweepSpec(p.SweepMax))
			if err != nil {
				return nil, err
			}
			agg, err := sweep.Run(ctx, eng, scenarios, sweep.Options{Workers: p.Workers})
			if err != nil {
				return nil, err
			}
			row.SweepShiftedASes = agg.ShiftedASes
			row.SweepLostReachPairs = agg.LostReachPairs
		}
		res.Samples = append(res.Samples, row)
	}
	res.Spread = ensembleSpread(res.Samples, res.Base)
	return res, nil
}

// ensembleSpread summarizes min/mean/max/stddev (population) per
// metric across the samples, with the base value alongside.
func ensembleSpread(samples []EnsembleSample, base EnsembleSample) []EnsembleSpread {
	metrics := []struct {
		name string
		get  func(EnsembleSample) float64
	}{
		{"flipped_edges", func(r EnsembleSample) float64 { return float64(r.FlippedEdges) }},
		{"unconverged", func(r EnsembleSample) float64 { return float64(r.Unconverged) }},
		{"atoms", func(r EnsembleSample) float64 { return float64(r.Atoms) }},
		{"multi_prefix_atoms", func(r EnsembleSample) float64 { return float64(r.MultiPrefixAtoms) }},
		{"sweep_shifted_ases", func(r EnsembleSample) float64 { return float64(r.SweepShiftedASes) }},
		{"sweep_lost_reach_pairs", func(r EnsembleSample) float64 { return float64(r.SweepLostReachPairs) }},
	}
	out := make([]EnsembleSpread, 0, len(metrics))
	for _, m := range metrics {
		sp := EnsembleSpread{Metric: m.name, Base: m.get(base)}
		if len(samples) == 0 {
			out = append(out, sp)
			continue
		}
		sp.Min = math.Inf(1)
		sp.Max = math.Inf(-1)
		var sum float64
		for _, r := range samples {
			v := m.get(r)
			sum += v
			sp.Min = math.Min(sp.Min, v)
			sp.Max = math.Max(sp.Max, v)
		}
		sp.Mean = sum / float64(len(samples))
		var varsum float64
		for _, r := range samples {
			d := m.get(r) - sp.Mean
			varsum += d * d
		}
		sp.StdDev = math.Sqrt(varsum / float64(len(samples)))
		out = append(out, sp)
	}
	return out
}
