package policyscope

// registry.go is the experiment catalog's machinery. An experiment is
// one register call: name, title, group, order, whether it runs on a
// snapshot-only dataset, default parameters, RunAll plan, compute
// function and renderer in a single literal, next to the functions it
// names (experiments.go for the paper's tables and figures, extensions.go,
// whatif.go, inferops.go). RunAll, cmd/repro and cmd/policyscoped all
// drive this one table through Session.Run, so the set of runnable
// experiments cannot drift between the CLI, the server and the battery.

import (
	"context"
	"fmt"
	"io"

	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/internal/reports"
)

// catalog is the process-wide experiment registry, populated at init.
var catalog = experiment.NewRegistry[*Session, experiment.Result](experiment.Kind{})

// def is one experiment, whole. P is its parameter type (NoParams for
// none).
type def[P any] struct {
	name, title, group string
	order              int
	// snapshot marks an experiment that reads only the collector snapshot
	// and the analysis relationship graph — the inputs an imported MRT
	// table dump provides. Everything else consumes generator ground
	// truth (annotated topology, full vantage tables, the simulation
	// engine): run against a snapshot-only dataset it returns
	// ErrNeedsGroundTruth instead of panicking on the missing inputs.
	snapshot bool
	// scenarioParams marks an experiment whose parameters carry a
	// scenario or a sweep spec: its answers stay out of the session's
	// result memo (each body is its own key, and the answer is the work).
	scenarioParams bool
	// defaults nil marks a parameter-less experiment. The value must not
	// contain pointers to shared mutable state — every request's copy
	// aliases them, and a JSON decode writes through a non-nil pointer in
	// place (concurrent queries would race on the shared target); use nil
	// pointers with resolve-on-read defaults instead (see
	// PersistenceParams.normalized).
	defaults *P
	// plan gives the parameter sets RunAll runs the experiment with (nil
	// plan: one run with defaults; empty result: skipped by RunAll but
	// still runnable by name).
	plan func(RunAllOptions) []any
	run  runFunc[P]
}

// runFunc computes one experiment. It receives the session's Study
// already built and, unless the experiment is snapshot-capable, already
// checked for ground truth.
type runFunc[P any] func(context.Context, *Session, *Study, P) (experiment.Result, error)

// register wires one experiment into the catalog.
func register[P any](d def[P]) {
	e := experiment.Experiment[*Session, experiment.Result]{
		Name: d.name, Title: d.title, Group: d.group, Order: d.order,
		NeedsGroundTruth: !d.snapshot, NoMemo: d.scenarioParams,
	}
	if d.defaults != nil {
		e.NewParams = func() any { p := *d.defaults; return &p }
	}
	if d.plan != nil {
		e.Plan = func(opts any) []any { return d.plan(opts.(RunAllOptions)) }
	}
	e.Run = func(ctx context.Context, se *Session, params any) (experiment.Result, error) {
		var p P
		if d.defaults != nil {
			p = *d.defaults
		}
		if params != nil {
			tp, ok := params.(*P)
			if !ok {
				return nil, &experiment.ParamError{Name: d.name,
					Err: fmt.Errorf("want *%T, got %T", p, params)}
			}
			if tp != nil {
				p = *tp
			}
		}
		s, err := se.Study()
		if err != nil {
			return nil, err
		}
		if !d.snapshot && !s.HasGroundTruth() {
			return nil, &NeedsGroundTruthError{Op: "experiment " + d.name}
		}
		return d.run(ctx, se, s, p)
	}
	catalog.MustRegister(e)
}

// NoParams marks a parameter-less experiment.
type NoParams struct{}

// ProvidersParams sizes the provider-side analyses (table7, table8,
// table9, table10, case3, multisite).
type ProvidersParams struct {
	// Providers is how many Tier-1 vantages to analyze.
	Providers int `json:"providers"`
}

// providersDefault is the paper's three: AS1, AS3549, AS7018.
var providersDefault = ProvidersParams{Providers: 3}

// planProviders is the shared RunAll plan for provider-count analyses.
func planProviders(opts RunAllOptions) []any {
	return []any{&ProvidersParams{Providers: opts.TierOneProviders}}
}

// RowsResult is the result of every experiment whose outcome is a list
// of rows (Tables 1–10, Case 3, the decision-step extension): the JSON
// form is {"rows": [...]}, and Render draws the table its registration
// named. Values come from Session.Run; one built elsewhere has no table
// to draw.
type RowsResult[T any] struct {
	Rows   []T `json:"rows"`
	render func([]T) *reports.Table
}

// Render implements experiment.Result.
func (r RowsResult[T]) Render(w io.Writer) error { return writeAll(w, r.render(r.Rows)) }

// table is the run function of a rows experiment: compute's rows, drawn
// by render.
func table[P, T any](compute func(*Study, P) []T, render func([]T) *reports.Table) runFunc[P] {
	return func(_ context.Context, _ *Session, s *Study, p P) (experiment.Result, error) {
		return RowsResult[T]{Rows: compute(s, p), render: render}, nil
	}
}

// writeAll renders a sequence of report tables/charts.
func writeAll(w io.Writer, items ...io.WriterTo) error {
	for _, item := range items {
		if _, err := item.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}
