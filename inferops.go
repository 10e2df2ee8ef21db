package policyscope

// inferops.go implements the inference-bakeoff experiments over the
// infer registry: inferbakeoff runs the registered algorithms side by
// side (scored against ground truth on demand, pairwise-agreement
// matrixed always), and inferensemble samples concrete relationship
// assignments from a probabilistic algorithm's posterior and pushes
// each through the convergence engine and sweep executor to put spread
// bars on the downstream metrics.

import (
	"context"
	"fmt"
	"io"
	"math"

	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/infer"
	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/atoms"
	"github.com/policyscope/policyscope/internal/reports"
	"github.com/policyscope/policyscope/internal/routeviews"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/sweep"
)

func init() {
	register(def[InferBakeoffParams]{
		name: "inferbakeoff", title: "Inference bakeoff: relationship algorithms side by side", group: "infer", order: 216,
		// Inference runs on observed paths; scoring is opt-in.
		snapshot: true,
		defaults: &InferBakeoffParams{},
		run:      runInferBakeoff,
	})
	register(def[InferEnsembleParams]{
		name: "inferensemble", title: "Posterior ensemble: sampled relationship worlds through convergence and sweeps",
		group: "infer", order: 217,
		defaults: &InferEnsembleParams{Algo: "pari", Samples: 5, Seed: 1, SweepMax: 16},
		// Convergence per sample is too heavy for the default RunAll
		// battery; run it by name (repro -run inferensemble).
		plan: func(RunAllOptions) []any { return nil },
		run:  runInferEnsemble,
	})
}

// InferBakeoffParams parameterizes the inference bakeoff. Empty Algos
// runs every registered algorithm; Score attaches ground-truth
// scorecards (and requires ground truth), so the default result stays
// derivable from a snapshot alone.
type InferBakeoffParams struct {
	Algos []string `json:"algos,omitempty"`
	Score bool     `json:"score,omitempty"`
}

// InferAlgoSummary is one algorithm's row in the bakeoff: what it
// inferred, and (when scored) how it did against ground truth.
type InferAlgoSummary struct {
	Name          string `json:"name"`
	Probabilistic bool   `json:"probabilistic,omitempty"`
	ASes          int    `json:"ases"`
	Edges         int    `json:"edges"`
	// P2C counts provider-customer edges (either orientation), P2P
	// peering edges, Siblings sibling edges.
	P2C      int `json:"p2c"`
	P2P      int `json:"p2p"`
	Siblings int `json:"siblings"`
	// Score is present only on scored runs (score=true, needs ground
	// truth) so the default result stays snapshot-derivable.
	Score *infer.Scorecard `json:"score,omitempty"`
}

// InferAgreementCell is one pairwise-agreement entry between two
// algorithms' inferred graphs, in bakeoff algorithm order.
type InferAgreementCell struct {
	A         string          `json:"a"`
	B         string          `json:"b"`
	Agreement infer.Agreement `json:"agreement"`
}

// InferBakeoffResult is the inference bakeoff: per-algorithm summaries
// plus the pairwise agreement matrix (upper triangle). Unscored runs
// contain nothing derived from ground truth.
type InferBakeoffResult struct {
	Paths      int                  `json:"paths"`
	Scored     bool                 `json:"scored,omitempty"`
	Algorithms []InferAlgoSummary   `json:"algorithms"`
	Agreement  []InferAgreementCell `json:"agreement,omitempty"`
}

// Render implements experiment.Result.
func (r InferBakeoffResult) Render(w io.Writer) error {
	cols := []string{"Algorithm", "ASes", "Edges", "p2c", "p2p", "sibling"}
	if r.Scored {
		cols = append(cols, "Accuracy", "Missed", "Spurious")
	}
	summary := &reports.Table{
		Title: fmt.Sprintf("Inference bakeoff: %d algorithms over %d observed paths",
			len(r.Algorithms), r.Paths),
		Columns: cols,
	}
	for _, a := range r.Algorithms {
		name := a.Name
		if a.Probabilistic {
			name += " (MAP)"
		}
		row := []string{name, fmt.Sprintf("%d", a.ASes), fmt.Sprintf("%d", a.Edges),
			fmt.Sprintf("%d", a.P2C), fmt.Sprintf("%d", a.P2P), fmt.Sprintf("%d", a.Siblings)}
		if r.Scored {
			acc, missed, spurious := "-", "-", "-"
			if a.Score != nil {
				acc = fmt.Sprintf("%.2f%%", 100*a.Score.Accuracy)
				missed = fmt.Sprintf("%d", a.Score.MissedEdges)
				spurious = fmt.Sprintf("%d", a.Score.SpuriousEdges)
			}
			row = append(row, acc, missed, spurious)
		}
		summary.AddRow(row...)
	}
	items := []io.WriterTo{summary}
	if r.Scored {
		classes := &reports.Table{
			Title:   "Per-class precision/recall vs ground truth",
			Columns: []string{"Algorithm", "Class", "Truth", "Inferred", "Correct", "Precision", "Recall"},
		}
		for _, a := range r.Algorithms {
			if a.Score == nil {
				continue
			}
			for _, key := range []string{"p2c", "p2p", "sibling"} {
				cs := a.Score.ByClass[key]
				classes.AddRow(a.Name, key, fmt.Sprintf("%d", cs.Truth),
					fmt.Sprintf("%d", cs.Inferred), fmt.Sprintf("%d", cs.Correct),
					fmt.Sprintf("%.2f", cs.Precision), fmt.Sprintf("%.2f", cs.Recall))
			}
		}
		items = append(items, classes)
	}
	if len(r.Agreement) > 0 {
		ag := &reports.Table{
			Title:   "Pairwise agreement (shared edges, identical relationship)",
			Columns: []string{"A", "B", "Shared", "Agree", "Fraction", "Only A", "Only B"},
		}
		for _, c := range r.Agreement {
			ag.AddRow(c.A, c.B, fmt.Sprintf("%d", c.Agreement.SharedEdges),
				fmt.Sprintf("%d", c.Agreement.Agree), fmt.Sprintf("%.2f", c.Agreement.Fraction),
				fmt.Sprintf("%d", c.Agreement.OnlyA), fmt.Sprintf("%d", c.Agreement.OnlyB))
		}
		items = append(items, ag)
	}
	return writeAll(w, items...)
}

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

// InferEnsembleParams parameterizes the posterior-ensemble experiment.
// Zero values take the defaults registered with the experiment (pari,
// 5 samples, seed 1, a 16-scenario link-failure probe).
type InferEnsembleParams struct {
	// Algo must name a probabilistic algorithm (one with a posterior).
	Algo string `json:"algo"`
	// Samples is the ensemble size K (capped at 64).
	Samples int `json:"samples"`
	// Seed drives the posterior sampler; sample i uses seed+i.
	Seed int64 `json:"seed"`
	// SweepMax caps the per-sample single-link-failure probe
	// (0 disables sweeping entirely).
	SweepMax int `json:"sweep_max"`
	// Workers is the sweep executor shard count (0 = GOMAXPROCS).
	Workers int `json:"workers"`
}

// EnsembleSample is one posterior sample's downstream metrics (Index -1
// is the ground-truth base row).
type EnsembleSample struct {
	Index int   `json:"index"`
	Seed  int64 `json:"seed"`
	// FlippedEdges counts relationship annotations the sample changed
	// relative to ground truth.
	FlippedEdges int `json:"flipped_edges"`
	// Unconverged counts prefixes that hit the activation budget under
	// the sampled policies (0 in valley-free ground truth).
	Unconverged      int `json:"unconverged"`
	Atoms            int `json:"atoms"`
	MultiPrefixAtoms int `json:"multi_prefix_atoms"`
	// Sweep totals over the capped single-link-failure probe (0 when
	// sweep_max=0 disables it).
	SweepShiftedASes    int `json:"sweep_shifted_ases"`
	SweepLostReachPairs int `json:"sweep_lost_reach_pairs"`
}

// EnsembleSpread is one metric's spread over the ensemble samples.
type EnsembleSpread struct {
	Metric string  `json:"metric"`
	Min    float64 `json:"min"`
	Mean   float64 `json:"mean"`
	Max    float64 `json:"max"`
	// StdDev is the population standard deviation over the samples.
	StdDev float64 `json:"stddev"`
	// Base is the metric under the study's ground-truth relationships.
	Base float64 `json:"base"`
}

// InferEnsembleResult is the posterior-ensemble experiment: K sampled
// relationship assignments pushed through convergence and the sweep
// executor, with spread bars against the ground-truth base.
type InferEnsembleResult struct {
	Algo           string           `json:"algo"`
	Seed           int64            `json:"seed"`
	PosteriorEdges int              `json:"posterior_edges"`
	SweepMax       int              `json:"sweep_max"`
	SweepScenarios int              `json:"sweep_scenarios,omitempty"`
	Base           EnsembleSample   `json:"base"`
	Samples        []EnsembleSample `json:"samples"`
	Spread         []EnsembleSpread `json:"spread"`
}

// Render implements experiment.Result.
func (r InferEnsembleResult) Render(w io.Writer) error {
	sampleRow := func(t *reports.Table, label string, s EnsembleSample) {
		t.AddRow(label, fmt.Sprintf("%d", s.FlippedEdges), fmt.Sprintf("%d", s.Unconverged),
			fmt.Sprintf("%d", s.Atoms), fmt.Sprintf("%d", s.MultiPrefixAtoms),
			fmt.Sprintf("%d", s.SweepShiftedASes), fmt.Sprintf("%d", s.SweepLostReachPairs))
	}
	samples := &reports.Table{
		Title: fmt.Sprintf(
			"Posterior ensemble (%s): %d samples over %d edges, %d-scenario link-failure probe",
			r.Algo, len(r.Samples), r.PosteriorEdges, r.SweepScenarios),
		Columns: []string{"Sample", "Flipped", "Unconverged", "Atoms", "Multi-prefix", "Sweep shifted", "Sweep lost"},
	}
	sampleRow(samples, "base", r.Base)
	for _, s := range r.Samples {
		sampleRow(samples, fmt.Sprintf("#%d (seed %d)", s.Index, s.Seed), s)
	}
	spread := &reports.Table{
		Title:   "Spread across samples",
		Columns: []string{"Metric", "Min", "Mean", "Max", "StdDev", "Base"},
	}
	for _, sp := range r.Spread {
		spread.AddRow(sp.Metric, fmt.Sprintf("%.0f", sp.Min), fmt.Sprintf("%.1f", sp.Mean),
			fmt.Sprintf("%.0f", sp.Max), fmt.Sprintf("%.2f", sp.StdDev), fmt.Sprintf("%.0f", sp.Base))
	}
	return writeAll(w, samples, spread)
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
		// Each sample converges from scratch, unlike the persistence
		// series' churn. Its flipped annotations leave hundreds of
		// prefixes unconverged (151–421 per sample at the defaults on
		// the default 600-AS dataset), and where the activation budget
		// runs out depends on the path taken: the same flips applied to
		// the base engine as link fail/restore events answer differently.
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
