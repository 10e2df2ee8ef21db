package policyscope

// registry.go is the experiment catalog: every table and figure of the
// paper plus the extensions registers here by name, with typed
// parameters (decodable from JSON or key=value flags) and a typed
// result (results.go). RunAll, cmd/repro and cmd/policyscoped all drive
// this one table, so the set of runnable experiments can never drift
// between the CLI, the server and the full sweep.

import (
	"context"
	"fmt"

	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/internal/core"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/sweep"
)

// catalog is the process-wide experiment registry, populated at init.
var catalog = experiment.NewRegistry[*Session, experiment.Result](experiment.Kind{})

// runAllPlans maps an experiment name to the parameter sets RunAll uses
// for it (nil entry or absent: one run with defaults; empty slice:
// skipped in RunAll but still runnable by name).
var runAllPlans = map[string]func(RunAllOptions) []any{}

// snapshotCapable lists the experiments that read only the collector
// snapshot and the analysis relationship graph — the inputs an imported
// MRT table dump provides. Everything else consumes generator ground
// truth (annotated topology, full vantage tables, the simulation
// engine) and is gated behind HasGroundTruth: running it against a
// snapshot-only dataset returns ErrNeedsGroundTruth instead of
// panicking on the missing inputs.
var snapshotCapable = map[string]bool{
	"table5":       true, // SA detector over peer best views
	"table6":       true, // per-customer SA shares at Tier-1 vantages
	"table8":       true, // multihoming split of SA origins
	"table9":       true, // splitting/aggregation signatures
	"table10":      true, // peer-export behaviour over the origin universe
	"inferbakeoff": true, // inference runs on observed paths; scoring is opt-in
}

// register wires one experiment into the catalog with typed parameters.
// run receives the session's Study already built (and, unless the
// experiment is snapshotCapable, already checked for ground truth).
// defaults == nil marks a parameter-less experiment. The defaults value
// must not contain pointers to shared mutable state — every NewParams
// copy aliases them, and a JSON decode writes through a non-nil pointer
// in place (concurrent queries would race on the shared target); use
// nil pointers with resolve-on-read defaults instead (see
// PersistenceParams.normalized).
func register[P any](name, title, group string, order int, defaults *P,
	run func(context.Context, *Session, *Study, P) (experiment.Result, error), plan func(RunAllOptions) []any) {
	e := experiment.Experiment[*Session, experiment.Result]{Name: name, Title: title, Group: group, Order: order,
		NeedsGroundTruth: !snapshotCapable[name]}
	if defaults != nil {
		d := *defaults
		e.NewParams = func() any { p := d; return &p }
	}
	needsGT := e.NeedsGroundTruth
	e.Run = func(ctx context.Context, se *Session, params any) (experiment.Result, error) {
		var p P
		if defaults != nil {
			p = *defaults
		}
		if params != nil {
			tp, ok := params.(*P)
			if !ok {
				return nil, &experiment.ParamError{Name: name,
					Err: fmt.Errorf("want *%T, got %T", p, params)}
			}
			p = *tp
		}
		s, err := se.Study()
		if err != nil {
			return nil, err
		}
		if needsGT && !s.HasGroundTruth() {
			return nil, &NeedsGroundTruthError{Op: "experiment " + name}
		}
		return run(ctx, se, s, p)
	}
	catalog.MustRegister(e)
	if plan != nil {
		runAllPlans[name] = plan
	}
}

// NoParams marks a parameter-less experiment.
type NoParams struct{}

// Table3Params parameterizes the IRR experiment (table3).
type Table3Params struct {
	// MinDate filters stale objects, yyyymmdd (paper: during 2002).
	MinDate int `json:"min_date"`
	// MinNeighbors keeps ASes with enough known-relationship imports.
	MinNeighbors int `json:"min_neighbors"`
}

// Table4Params caps the verification table (table4).
type Table4Params struct {
	// MaxASes bounds the row count like the paper's 9-row table.
	MaxASes int `json:"max_ases"`
}

// ProvidersParams sizes the provider-side analyses (table7, table8,
// table9, table10, case3, multisite).
type ProvidersParams struct {
	// Providers is how many Tier-1 vantages to analyze.
	Providers int `json:"providers"`
}

// Table6Params shapes the per-customer SA table (table6).
type Table6Params struct {
	Providers   int `json:"providers"`
	MaxRows     int `json:"max_rows"`
	MinPrefixes int `json:"min_prefixes"`
}

// Figure2bParams sizes the per-router refinement (figure2b).
type Figure2bParams struct {
	Routers      int `json:"routers"`
	DriftRouters int `json:"drift_routers"`
}

// Figure9Params sizes the neighbor-rank series (figure9).
type Figure9Params struct {
	// ASes is how many vantages to chart.
	ASes int `json:"ases"`
	// MaxRanks truncates each curve.
	MaxRanks int `json:"max_ranks"`
}

// PersistenceParams sizes a persistence series (figure6, figure7).
// Zero Epochs/EpochSeconds take the daily defaults (31 epochs, 86400s);
// ChurnFraction nil takes 0.008, while an explicit 0 runs a no-churn
// control series (same pointer semantics as TopologyTuning).
type PersistenceParams struct {
	Epochs        int      `json:"epochs"`
	ChurnFraction *float64 `json:"churn_fraction"`
	EpochSeconds  uint32   `json:"epoch_seconds"`
}

// persistKey is a persistence parameter set with defaults resolved — a
// comparable value, so equal effective parameter sets share one
// memoized series regardless of pointer identity.
type persistKey struct {
	epochs       int
	churn        float64
	epochSeconds uint32
}

// normalized resolves the persistence defaults. An explicit
// ChurnFraction of 0 survives (no-churn control series).
func (p PersistenceParams) normalized() persistKey {
	k := persistKey{epochs: p.Epochs, churn: 0.008, epochSeconds: p.EpochSeconds}
	if k.epochs <= 0 {
		k.epochs = 31
	}
	if p.ChurnFraction != nil {
		k.churn = *p.ChurnFraction
	}
	if k.epochSeconds == 0 {
		k.epochSeconds = 86400
	}
	return k
}

// WhatIfParams parameterizes the what-if experiment. An empty scenario
// (no events) runs the study's canonical failover what-if.
type WhatIfParams struct {
	Scenario simulate.Scenario `json:"scenario"`
	// MaxRows caps the rendered report's table rows.
	MaxRows int `json:"max_rows"`
}

// SweepParams parameterizes the sweep experiment: a declarative spec
// expanded against the study's topology, run on the sharded executor.
// An empty spec (no generators) runs a capped all-single-link-failures
// sweep as a demonstration.
type SweepParams struct {
	Spec sweep.Spec `json:"spec"`
	// Workers is the executor shard count (0 = GOMAXPROCS).
	Workers int `json:"workers"`
	// TopShifts bounds each record's per-prefix detail (0 = 3).
	TopShifts int `json:"top_shifts"`
	// TopK bounds the aggregate's critical-scenario lists (0 = 10).
	TopK int `json:"top_k"`
	// MaxRecords caps the per-scenario records the result retains
	// (<= 0 keeps all; the streaming /sweep endpoint always carries
	// every record).
	MaxRecords int `json:"max_records"`
}

// InferBakeoffParams parameterizes the inference bakeoff. Empty Algos
// runs every registered algorithm; Score attaches ground-truth
// scorecards (and requires ground truth), so the default result stays
// derivable from a snapshot alone.
type InferBakeoffParams struct {
	Algos []string `json:"algos,omitempty"`
	Score bool     `json:"score,omitempty"`
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

// xlabel names the epoch unit for chart axes.
func (k persistKey) xlabel() string {
	if k.epochSeconds == 3600 {
		return "hour"
	}
	return "day"
}

func init() {
	register("overview", "Study overview: dimensions, inference accuracy, SA ground truth",
		"summary", 0, (*NoParams)(nil),
		func(_ context.Context, _ *Session, s *Study, _ NoParams) (experiment.Result, error) {
			acc := s.RelationshipAccuracy()
			tp, fp := s.SAGroundTruthScore()
			return OverviewResult{
				ASes:                    len(s.Topo.Order),
				Prefixes:                s.Topo.TotalPrefixes(),
				CollectorPeers:          len(s.Peers),
				LookingGlassCount:       len(s.LookingGlass),
				Seed:                    s.Config.Seed,
				RelationshipAccuracyPct: 100 * acc.Fraction(),
				ObservedEdges:           acc.Total,
				SATruePositives:         tp,
				SAFalsePositives:        fp,
			}, nil
		}, nil)

	register("table1", "Table 1: vantage ASes", "table", 10, (*NoParams)(nil),
		func(_ context.Context, _ *Session, s *Study, _ NoParams) (experiment.Result, error) {
			return Table1Result{Rows: s.Table1Dataset()}, nil
		}, nil)

	register("table2", "Table 2: typical local preference assignment", "table", 20, (*NoParams)(nil),
		func(_ context.Context, _ *Session, s *Study, _ NoParams) (experiment.Result, error) {
			return Table2Result{Rows: s.Table2TypicalLocalPref()}, nil
		}, nil)

	register("table3", "Table 3: typical local preference from IRR", "table", 30,
		&Table3Params{MinDate: 20020101, MinNeighbors: 4},
		func(_ context.Context, _ *Session, s *Study, p Table3Params) (experiment.Result, error) {
			return Table3Result{Rows: s.Table3IRR(Table3Options{
				MinDate: p.MinDate, MinNeighbors: p.MinNeighbors,
			})}, nil
		}, nil)

	register("figure2a", "Figure 2(a): localpref consistency with next-hop AS", "figure", 40, (*NoParams)(nil),
		func(_ context.Context, _ *Session, s *Study, _ NoParams) (experiment.Result, error) {
			return Figure2Result{
				Title: "Figure 2(a): localpref consistency with next-hop AS",
				Rows:  s.Figure2aConsistency(),
			}, nil
		}, nil)

	register("figure2b", "Figure 2(b): per-router localpref consistency", "figure", 50,
		&Figure2bParams{Routers: 30, DriftRouters: 4},
		func(_ context.Context, _ *Session, s *Study, p Figure2bParams) (experiment.Result, error) {
			rows, err := s.Figure2bRouterConsistency(p.Routers, p.DriftRouters)
			if err != nil {
				return nil, err
			}
			return Figure2Result{
				Title: "Figure 2(b): per-router localpref consistency",
				Rows:  rows,
			}, nil
		},
		func(opts RunAllOptions) []any {
			if opts.Routers <= 0 {
				return nil
			}
			return []any{&Figure2bParams{Routers: opts.Routers, DriftRouters: opts.DriftRouters}}
		})

	register("table4", "Table 4: AS relationships verified via BGP communities", "table", 60,
		&Table4Params{MaxASes: 9},
		func(_ context.Context, _ *Session, s *Study, p Table4Params) (experiment.Result, error) {
			return Table4Result{Rows: s.Table4Verification(p.MaxASes)}, nil
		}, nil)

	register("table5", "Table 5: selectively announced prefixes per vantage", "table", 70, (*NoParams)(nil),
		func(_ context.Context, _ *Session, s *Study, _ NoParams) (experiment.Result, error) {
			return Table5Result{Rows: s.Table5SAPrefixes()}, nil
		}, nil)

	register("table6", "Table 6: SA prefixes per customer of the top Tier-1 providers", "table", 80,
		&Table6Params{Providers: 3, MaxRows: 8, MinPrefixes: 2},
		func(_ context.Context, _ *Session, s *Study, p Table6Params) (experiment.Result, error) {
			return Table6Result{Rows: s.Table6CustomerView(p.Providers, p.MaxRows, p.MinPrefixes)}, nil
		},
		func(opts RunAllOptions) []any {
			return []any{&Table6Params{
				Providers: opts.TierOneProviders, MaxRows: opts.Table6Rows,
				MinPrefixes: opts.Table6MinPrefixes,
			}}
		})

	register("table7", "Table 7: SA prefixes verified via active customer paths", "table", 90,
		&ProvidersParams{Providers: 3},
		func(_ context.Context, _ *Session, s *Study, p ProvidersParams) (experiment.Result, error) {
			return Table7Result{Rows: s.Table7Verification(p.Providers)}, nil
		}, planProviders)

	register("table8", "Table 8: multihomed vs single-homed SA origins", "table", 100,
		&ProvidersParams{Providers: 3},
		func(_ context.Context, _ *Session, s *Study, p ProvidersParams) (experiment.Result, error) {
			return Table8Result{Rows: s.Table8Multihoming(p.Providers)}, nil
		}, planProviders)

	register("table9", "Table 9: prefix splitting and aggregation among SA prefixes", "table", 110,
		&ProvidersParams{Providers: 3},
		func(_ context.Context, _ *Session, s *Study, p ProvidersParams) (experiment.Result, error) {
			return Table9Result{Rows: s.Table9SplitAggregate(p.Providers)}, nil
		}, planProviders)

	register("case3", "Case 3: how SA origins export to vantage-side providers", "table", 120,
		&ProvidersParams{Providers: 3},
		func(_ context.Context, _ *Session, s *Study, p ProvidersParams) (experiment.Result, error) {
			return Case3Result{Rows: s.Case3Selective(p.Providers)}, nil
		}, planProviders)

	register("table10", "Table 10: peers announcing all their prefixes directly", "table", 130,
		&ProvidersParams{Providers: 3},
		func(_ context.Context, _ *Session, s *Study, p ProvidersParams) (experiment.Result, error) {
			return Table10Result{Rows: s.Table10PeerExport(p.Providers)}, nil
		}, planProviders)

	register("atoms", "Policy atoms: decomposition and SA attribution (extension)", "extension", 140, (*NoParams)(nil),
		func(_ context.Context, _ *Session, s *Study, _ NoParams) (experiment.Result, error) {
			return s.PolicyAtoms(), nil
		}, nil)

	register("decision", "Deciding step for contested prefixes (extension)", "extension", 150, (*NoParams)(nil),
		func(_ context.Context, _ *Session, s *Study, _ NoParams) (experiment.Result, error) {
			return DecisionResult{Rows: s.DecisionCharacterization()}, nil
		}, nil)

	register("multisite", "Multi-site confounder (extension)", "extension", 160,
		&ProvidersParams{Providers: 3},
		func(_ context.Context, _ *Session, s *Study, p ProvidersParams) (experiment.Result, error) {
			return s.MultiSiteConfounder(p.Providers), nil
		}, planProviders)

	register("table11", "Table 11: published tagging communities", "table", 170, (*NoParams)(nil),
		func(_ context.Context, _ *Session, s *Study, _ NoParams) (experiment.Result, error) {
			asn, scheme, ok := s.Table11Scheme()
			return Table11Result{AS: asn, Scheme: scheme, Found: ok}, nil
		}, nil)

	register("figure9", "Figure 9: prefixes announced by next-hop ASes", "figure", 180,
		&Figure9Params{ASes: 3, MaxRanks: 20},
		func(_ context.Context, _ *Session, s *Study, p Figure9Params) (experiment.Result, error) {
			res := Figure9Result{}
			for _, asn := range s.Peers {
				if len(res.Series) >= p.ASes {
					break
				}
				ranks := core.RankNeighbors(s.Result.Tables[asn])
				if p.MaxRanks > 0 && len(ranks) > p.MaxRanks {
					ranks = ranks[:p.MaxRanks]
				}
				res.Series = append(res.Series, Figure9Series{AS: asn, Ranks: ranks})
			}
			return res, nil
		},
		func(opts RunAllOptions) []any {
			if opts.Figure9ASes <= 0 {
				return nil
			}
			return []any{&Figure9Params{ASes: opts.Figure9ASes, MaxRanks: 20}}
		})

	register("figure6", "Figure 6: persistence of SA prefixes", "figure", 190,
		&PersistenceParams{Epochs: 31, EpochSeconds: 86400},
		func(_ context.Context, se *Session, _ *Study, p PersistenceParams) (experiment.Result, error) {
			k := p.normalized()
			res, err := se.persistence(k)
			if err != nil {
				return nil, err
			}
			return PersistenceChartResult{Figure: 6, XLabel: k.xlabel(), Series: res}, nil
		}, planPersistence)

	register("figure7", "Figure 7: SA uptime histogram", "figure", 200,
		&PersistenceParams{Epochs: 31, EpochSeconds: 86400},
		func(_ context.Context, se *Session, _ *Study, p PersistenceParams) (experiment.Result, error) {
			k := p.normalized()
			res, err := se.persistence(k)
			if err != nil {
				return nil, err
			}
			return PersistenceChartResult{Figure: 7, XLabel: k.xlabel(), Series: res}, nil
		}, planPersistence)

	register("whatif", "What-if: scenario applied to the converged study", "whatif", 210,
		&WhatIfParams{MaxRows: 10},
		func(ctx context.Context, se *Session, s *Study, p WhatIfParams) (experiment.Result, error) {
			sc := p.Scenario
			if len(sc.Events) == 0 {
				var ok bool
				if sc, _, _, ok = s.FailoverScenario(); !ok {
					return WhatIfResult{MaxRows: p.MaxRows}, nil
				}
			}
			rep, err := se.WhatIf(ctx, sc)
			if err != nil {
				return nil, err
			}
			return WhatIfResult{Report: rep, MaxRows: p.MaxRows}, nil
		},
		func(opts RunAllOptions) []any {
			if opts.SkipWhatIf {
				return nil
			}
			return []any{nil}
		})

	register("sweep", "Sweep: batch what-if over scenario families, aggregated", "sweep", 215,
		&SweepParams{MaxRecords: 20},
		func(ctx context.Context, se *Session, _ *Study, p SweepParams) (experiment.Result, error) {
			spec := p.Spec
			if len(spec.Generators) == 0 {
				spec = sweep.Spec{
					Name:       "default-single-link-failures",
					Generators: []sweep.Generator{{Kind: sweep.KindAllSingleLinkFailures, Max: 16}},
				}
			}
			scenarios, err := se.SweepScenarios(ctx, spec)
			if err != nil {
				return nil, &experiment.ParamError{Name: "sweep", Err: err}
			}
			var records []*sweep.Impact
			opts := sweep.Options{
				Workers: p.Workers, TopShifts: p.TopShifts, TopK: p.TopK,
				OnImpact: func(imp *sweep.Impact) error {
					if p.MaxRecords <= 0 || len(records) < p.MaxRecords {
						records = append(records, imp)
					}
					return nil
				},
			}
			agg, err := se.Sweep(ctx, scenarios, opts)
			if err != nil {
				return nil, err
			}
			return SweepResult{Spec: spec, Aggregate: agg, Records: records}, nil
		},
		// A whole-topology sweep is too heavy for the default RunAll
		// battery; run it by name (repro -run sweep, POST /sweep).
		func(RunAllOptions) []any { return []any{} })

	register("inferbakeoff", "Inference bakeoff: relationship algorithms side by side", "infer", 216,
		&InferBakeoffParams{}, runInferBakeoff, nil)

	register("inferensemble", "Posterior ensemble: sampled relationship worlds through convergence and sweeps", "infer", 217,
		&InferEnsembleParams{Algo: "pari", Samples: 5, Seed: 1, SweepMax: 16},
		runInferEnsemble,
		// Convergence per sample is too heavy for the default RunAll
		// battery; run it by name (repro -run inferensemble).
		func(RunAllOptions) []any { return []any{} })

	register("summary", "Summary: paper vs measured", "summary", 220, (*NoParams)(nil),
		func(_ context.Context, _ *Session, s *Study, _ NoParams) (experiment.Result, error) {
			return s.Summary(), nil
		}, nil)
}

// planProviders is the shared RunAll plan for provider-count analyses.
func planProviders(opts RunAllOptions) []any {
	return []any{&ProvidersParams{Providers: opts.TierOneProviders}}
}

// planPersistence expands a sweep into the daily and hourly series.
func planPersistence(opts RunAllOptions) []any {
	var out []any
	if opts.DailyEpochs > 0 {
		out = append(out, &PersistenceParams{
			Epochs: opts.DailyEpochs, ChurnFraction: Prob(0.008), EpochSeconds: 86400,
		})
	}
	if opts.HourlyEpochs > 0 {
		out = append(out, &PersistenceParams{
			Epochs: opts.HourlyEpochs, ChurnFraction: Prob(0.003), EpochSeconds: 3600,
		})
	}
	return out
}
