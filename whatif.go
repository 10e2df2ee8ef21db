package policyscope

import (
	"context"
	"fmt"
	"io"
	"sort"

	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/reports"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/sweep"
)

// What-if experiments: the paper infers which routes ASes *do* use; the
// scenario engine asks which routes they *would* use after a change —
// the catchment and failover questions the related what-if literature
// (Sermpezis & Kotronis's catchment inference, Karlin et al.'s
// nation-state routing) studies. Session.WhatIf applies a scenario to
// the study's converged Internet and reports the catchment shift and
// reachability delta, re-converging incrementally.

func init() {
	register(def[WhatIfParams]{
		name: "whatif", title: "What-if: scenario applied to the converged study", group: "whatif", order: 210,
		scenarioParams: true,
		defaults:       &WhatIfParams{MaxRows: 10},
		plan: func(opts RunAllOptions) []any {
			if opts.SkipWhatIf {
				return nil
			}
			return []any{nil}
		},
		run: func(ctx context.Context, se *Session, s *Study, p WhatIfParams) (experiment.Result, error) {
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
	})
}

// WhatIfParams parameterizes the what-if experiment. An empty scenario
// (no events) runs the study's canonical failover what-if.
type WhatIfParams struct {
	Scenario simulate.Scenario `json:"scenario"`
	// MaxRows caps the rendered report's table rows.
	MaxRows int `json:"max_rows"`
}

// WhatIfResult wraps a what-if report (nil when the study has no
// default failover subject and none was requested).
type WhatIfResult struct {
	Report  *WhatIfReport `json:"report"`
	MaxRows int           `json:"-"`
}

// Render implements experiment.Result.
func (r WhatIfResult) Render(w io.Writer) error {
	if r.Report == nil {
		return nil
	}
	return WriteWhatIf(w, r.Report, r.MaxRows)
}

// WhatIfReport is the outcome of one scenario application.
type WhatIfReport struct {
	Scenario simulate.Scenario
	// Delta is the raw routing change the engine observed.
	Delta *simulate.Delta
	// PeerBestChanged counts, per collector peer, prefixes whose best
	// route at that peer changed (the engine's Delta.PeerBestChanged;
	// every peer has a key).
	PeerBestChanged map[bgp.ASN]int
	// LostReach / GainedReach total the (prefix, AS) reachability pairs
	// removed and created by the scenario.
	LostReach, GainedReach int
}

// WhatIfEngine returns a scenario engine over the study's converged
// state: a copy-on-write clone of the study's base engine, which costs
// what the caller's Apply calls go on to write, not a convergence.
// Successive Apply calls compound on the returned engine while the study
// itself stays on the base configuration; under a Checkpoint, one Rollback
// undoes all of them, of any event kind.
func (s *Study) WhatIfEngine() (*simulate.Engine, error) {
	base, err := s.baseEngine()
	if err != nil {
		return nil, err
	}
	return base.Clone(), nil
}

// baseEngine is the study's one gate on its base engine. Inputs that
// came with the run that converged them (StudyInputs.Base: every dataset
// source) resolved it at assembly; a study assembled from a bare Result
// pays for a convergence here, once, on first demand.
func (s *Study) baseEngine() (*simulate.Engine, error) {
	s.baseOnce.Do(func() {
		if s.Topo == nil {
			s.baseErr = &NeedsGroundTruthError{Op: "what-if engine"}
			return
		}
		s.base, s.baseErr = simulate.NewEngine(s.Topo, simulate.Options{
			VantagePoints: s.Peers,
			Parallelism:   s.Config.Parallelism,
			Intern:        s.Intern,
		})
	})
	return s.base, s.baseErr
}

// whatIfReport summarizes the shift delta records for sc. The report
// holds nothing of the engine the scenario ran on.
func (s *Study) whatIfReport(sc simulate.Scenario, delta *simulate.Delta) *WhatIfReport {
	rep := &WhatIfReport{
		Scenario:        sc,
		Delta:           delta,
		PeerBestChanged: make(map[bgp.ASN]int, len(s.Peers)),
	}
	// Keyed by the study's peers: one the engine holds no table for
	// still gets its zero.
	for _, peer := range s.Peers {
		rep.PeerBestChanged[peer] = delta.PeerBestChanged[peer]
	}
	for _, rd := range delta.ReachDeltas {
		if rd.After < rd.Before {
			rep.LostReach += rd.Before - rd.After
		} else {
			rep.GainedReach += rd.After - rd.Before
		}
	}
	return rep
}

// FailoverScenario is the canonical what-if: fail the link between a
// multihomed stub and its first provider. It returns the scenario plus
// the event's endpoints, or ok=false when the study has no multihomed
// stub.
func (s *Study) FailoverScenario() (simulate.Scenario, bgp.ASN, bgp.ASN, bool) {
	for _, asn := range s.Topo.Order {
		providers := s.Topo.Graph.Providers(asn)
		if len(providers) >= 2 && len(s.Topo.ASes[asn].Prefixes) > 0 {
			sc := simulate.Scenario{
				Name:   fmt.Sprintf("failover-%d-%d", asn, providers[0]),
				Events: []simulate.Event{simulate.FailLink(asn, providers[0])},
			}
			return sc, asn, providers[0], true
		}
	}
	return simulate.Scenario{}, 0, 0, false
}

// renderWhatIf renders the report in the repro harness's table style: a
// summary header and the most-shifted prefixes.
func renderWhatIf(rep *WhatIfReport, maxRows int) *reports.Table {
	if maxRows <= 0 {
		maxRows = 10
	}
	name := rep.Scenario.Name
	if name == "" {
		name = fmt.Sprintf("%d event(s)", len(rep.Scenario.Events))
	}
	t := &reports.Table{
		Title: fmt.Sprintf("What-if %s: %d/%d prefixes re-converged, %d AS-level best shifts, reach -%d/+%d",
			name, rep.Delta.Recomputed, rep.Delta.TotalPrefixes,
			rep.Delta.ShiftedASes(), rep.LostReach, rep.GainedReach),
		Columns: []string{"Prefix", "Origin", "Shifted ASes", "Lost", "Gained"},
	}
	for i, sh := range rep.Delta.Shifts {
		if i >= maxRows {
			t.AddRow("...", "", fmt.Sprintf("(%d more)", len(rep.Delta.Shifts)-maxRows), "", "")
			break
		}
		t.AddRow(sh.Prefix.String(), fmt.Sprintf("AS%d", sh.Origin),
			fmt.Sprintf("%d", sh.Shifted), fmt.Sprintf("%d", sh.Lost), fmt.Sprintf("%d", sh.Gained))
	}
	return t
}

// renderWhatIfPeers renders the per-peer view-change counts, peers with
// the largest shift first.
func renderWhatIfPeers(rep *WhatIfReport, maxRows int) *reports.Table {
	if maxRows <= 0 {
		maxRows = 10
	}
	type row struct {
		peer bgp.ASN
		n    int
	}
	rows := make([]row, 0, len(rep.PeerBestChanged))
	for peer, n := range rep.PeerBestChanged {
		if n > 0 {
			rows = append(rows, row{peer, n})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].peer < rows[j].peer
	})
	t := &reports.Table{
		Title:   fmt.Sprintf("Collector peers with changed best views: %d", len(rows)),
		Columns: []string{"Peer", "Changed best routes"},
	}
	for i, r := range rows {
		if i >= maxRows {
			t.AddRow("...", fmt.Sprintf("(%d more)", len(rows)-maxRows))
			break
		}
		t.AddRow(fmt.Sprintf("AS%d", r.peer), fmt.Sprintf("%d", r.n))
	}
	return t
}

// WriteWhatIf renders both what-if tables to w.
func WriteWhatIf(w io.Writer, rep *WhatIfReport, maxRows int) error {
	return writeAll(w, renderWhatIf(rep, maxRows), renderWhatIfPeers(rep, maxRows))
}

// ---- Sweep -------------------------------------------------------------------

func init() {
	register(def[SweepParams]{
		name: "sweep", title: "Sweep: batch what-if over scenario families, aggregated", group: "sweep", order: 215,
		scenarioParams: true,
		defaults:       &SweepParams{MaxRecords: 20},
		// A whole-topology sweep is too heavy for the default RunAll
		// battery; run it by name (repro -run sweep, POST /sweep).
		plan: func(RunAllOptions) []any { return nil },
		run: func(ctx context.Context, se *Session, _ *Study, p SweepParams) (experiment.Result, error) {
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
	})
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

// SweepResult is the registry-shaped outcome of a sweep: the expanded
// spec, the streamed aggregate, and (bounded by SweepParams.MaxRecords)
// the head of the per-scenario record stream.
type SweepResult struct {
	Spec      sweep.Spec       `json:"spec"`
	Aggregate *sweep.Aggregate `json:"aggregate"`
	Records   []*sweep.Impact  `json:"records,omitempty"`
}

// Render implements experiment.Result.
func (r SweepResult) Render(w io.Writer) error {
	a := r.Aggregate
	name := r.Spec.Name
	if name == "" {
		name = fmt.Sprintf("%d generator(s)", len(r.Spec.Generators))
	}
	summary := &reports.Table{
		Title: fmt.Sprintf(
			"Sweep %s: %d scenarios (%d with impact, %d partitioning, %d errors), %d (prefix,AS) best shifts, reach -%d/+%d",
			name, a.Scenarios, a.ScenariosWithImpact, a.ScenariosPartitioning, a.Errors,
			a.ShiftedASes, a.LostReachPairs, a.GainedReachPairs),
		Columns: []string{"Shifted (prefix,AS) pairs", "Scenarios"},
	}
	for _, b := range a.Histogram {
		summary.AddRow(b.Label, fmt.Sprintf("%d", b.Scenarios))
	}
	top := &reports.Table{
		Title:   "Most critical scenarios (by shifted pairs)",
		Columns: []string{"#", "Scenario", "Shifted", "Lost reach"},
	}
	for i, e := range a.TopByShift {
		top.AddRow(fmt.Sprintf("%d", i+1), e.Name,
			fmt.Sprintf("%d", e.ShiftedASes), fmt.Sprintf("%d", e.LostReachPairs))
	}
	peers := &reports.Table{
		Title:   fmt.Sprintf("Vantage points touched: %d", len(a.Peers)),
		Columns: []string{"Peer", "Scenarios", "Changed best routes"},
	}
	for i, p := range a.Peers {
		if i >= 10 {
			peers.AddRow("...", fmt.Sprintf("(%d more)", len(a.Peers)-10), "")
			break
		}
		peers.AddRow(fmt.Sprintf("AS%d", p.Peer),
			fmt.Sprintf("%d", p.Scenarios), fmt.Sprintf("%d", p.PrefixChanges))
	}
	return writeAll(w, summary, top, peers)
}
