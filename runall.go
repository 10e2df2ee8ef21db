package policyscope

import (
	"context"
	"fmt"
	"io"

	"github.com/policyscope/policyscope/experiment"
)

// RunAllOptions sizes the full experiment sweep. Session.RunAll is a
// plain iteration over the experiment catalog: these options only
// parameterize the plans the experiments registered.
type RunAllOptions struct {
	// TierOneProviders is how many Tier-1 vantages the provider-side
	// tables use (the paper uses 3: AS1, AS3549, AS7018).
	TierOneProviders int
	// Table6Rows / Table6MinPrefixes shape the customer table.
	Table6Rows, Table6MinPrefixes int
	// DailyEpochs / HourlyEpochs size the two persistence series
	// (Figure 6a/7a and 6b/7b). Zero skips the series.
	DailyEpochs, HourlyEpochs int
	// Routers / DriftRouters size the Figure 2(b) refinement.
	Routers, DriftRouters int
	// Figure9ASes is how many rank series to print.
	Figure9ASes int
	// SkipWhatIf drops the failover what-if experiment (the scenario
	// engine demo appended after the paper's tables).
	SkipWhatIf bool
}

// DefaultRunAllOptions mirrors the paper's dimensions.
func DefaultRunAllOptions() RunAllOptions {
	return RunAllOptions{
		TierOneProviders:  3,
		Table6Rows:        8,
		Table6MinPrefixes: 2,
		DailyEpochs:       31,
		HourlyEpochs:      12,
		Routers:           30,
		DriftRouters:      4,
		Figure9ASes:       3,
	}
}

// RunAll executes every catalog experiment in order with the
// RunAllOptions-derived parameter plans and renders each result to w —
// the paper's tables and figures end to end. Because it is a plain
// iteration over the registry, a newly registered experiment appears
// here automatically and the ordering can never drift from the catalog.
func (se *Session) RunAll(ctx context.Context, w io.Writer, opts RunAllOptions) error {
	return se.runAll(ctx, opts, func(out ExperimentOutput) error { return out.Result.Render(w) })
}

// RunAllDocument is the JSON form of a full sweep: one entry per
// experiment invocation, in catalog order. Marshaling it at a fixed
// seed is byte-stable across runs.
type RunAllDocument struct {
	Config      Config             `json:"config"`
	Experiments []ExperimentOutput `json:"experiments"`
}

// ExperimentOutput is one experiment invocation's name, parameters and
// typed result.
type ExperimentOutput struct {
	Name   string            `json:"name"`
	Title  string            `json:"title"`
	Params any               `json:"params,omitempty"`
	Result experiment.Result `json:"result"`
}

// RunAllJSON executes the same sweep as RunAll and returns the
// structured document instead of rendering text.
func (se *Session) RunAllJSON(ctx context.Context, opts RunAllOptions) (*RunAllDocument, error) {
	doc := &RunAllDocument{Config: se.cfg}
	err := se.runAll(ctx, opts, func(out ExperimentOutput) error {
		doc.Experiments = append(doc.Experiments, out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return doc, nil
}

// runAll is the battery: every catalog experiment in order, once per
// parameter set of its plan (one default run without a plan), each
// outcome handed to emit. On a snapshot-only dataset the
// ground-truth-dependent experiments are unanswerable by construction,
// so the battery passes over them instead of aborting at the first typed
// error; running one *by name* still returns ErrNeedsGroundTruth.
func (se *Session) runAll(ctx context.Context, opts RunAllOptions, emit func(ExperimentOutput) error) error {
	if opts.TierOneProviders <= 0 {
		opts.TierOneProviders = providersDefault.Providers
	}
	s, err := se.Study()
	if err != nil {
		return err
	}
	for _, e := range catalog.All() {
		if e.NeedsGroundTruth && !s.HasGroundTruth() {
			continue
		}
		paramSets := []any{nil}
		if e.Plan != nil {
			paramSets = e.Plan(opts)
		}
		for _, params := range paramSets {
			res, err := se.Run(ctx, e.Name, params)
			if err != nil {
				return fmt.Errorf("policyscope: %s: %w", e.Name, err)
			}
			if err := emit(ExperimentOutput{Name: e.Name, Title: e.Title, Params: params, Result: res}); err != nil {
				return err
			}
		}
	}
	return nil
}
