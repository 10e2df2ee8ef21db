package policyscope

import (
	"context"
	"encoding/json"
	"maps"
	"reflect"
	"slices"
	"sync"
	"time"

	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/infer"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/core"
	"github.com/policyscope/policyscope/internal/lookingglass"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/sweep"
	"github.com/policyscope/policyscope/obs"
)

// Session is the serving-side façade over a Study: it builds the Study
// once, lazily memoizes the expensive shared artifacts behind
// sync.Once-style gates — the Gao-inferred relationships, observed-path
// index and base what-if engine (all on the Study itself), the
// Looking-Glass server over the vantage tables, the per-parameter
// persistence series and each read-only experiment's answer — and is
// safe for many concurrent queries. What-if scenarios and sweep workers
// run on scratch engines leased from the study's pristine base engine —
// copy-on-write clones that are rolled back and reused across calls — so
// parallel callers never contend and never observe each other's
// mutations.
//
// Construction is free: the first query pays for generation and
// simulation, every later query reuses them.
//
//	sess := policyscope.NewSession(policyscope.DefaultConfig())
//	res, err := sess.Run(ctx, "table5", nil)
//	res.Render(os.Stdout)           // or json.Marshal(res)
type Session struct {
	cfg Config

	studyOnce sync.Once
	study     *Study
	studyErr  error

	lgOnce sync.Once
	lg     *lookingglass.Server
	lgErr  error

	// persist memoizes persistence series per normalized parameter set
	// (one churn Apply per epoch on a what-if engine; figure6/figure7
	// share one).
	persist *memo[persistKey, core.PersistenceResult]

	// inferRuns memoizes relationship-inference outputs per
	// (algorithm, canonical params): the bakeoff, the ensemble and the
	// /infer endpoint all share one run of each parameterization, the
	// same way the lazy Gao gate shares one legacy inference.
	inferRuns *memo[canonKey, *infer.Output]

	// sweepExpand memoizes sweep spec expansions per canonical spec
	// JSON: a distributed coordinator sends every shard of one sweep to
	// this worker with the same spec, so only the first shard pays for
	// generator enumeration.
	sweepExpand *memo[string, []simulate.Scenario]

	// results memoizes whole answers per (experiment, canonical params):
	// a read-only experiment is a pure function of the immutable Study,
	// so it is computed once and each of its wire bodies rendered once.
	// persist and inferRuns stay beside it — they share an artifact
	// between experiments, which a per-experiment memo cannot.
	results *memo[canonKey, *Answer]
	// held is this session's share of the result-memo bytes gauge.
	held *heldBytes
}

// canonKey identifies one memoized run of a catalog entry — an inference
// algorithm or an experiment: its name plus its decoded parameters
// (defaults resolved) re-marshaled to canonical JSON, so equal effective
// parameter sets share one entry regardless of field order or encoding
// form (an empty body, {}, the spelled-out defaults, key=value flags).
type canonKey struct {
	name   string
	params string
}

// maxResultMemo bounds the result memo so a parameter-fuzzing client
// cannot grow a session. The catalog at its defaults (26 entries) plus
// the non-default parameter sets of one RunAll battery is under 40, so
// 64 keeps a served working set whole. On the paper preset the one
// large body (table5's JSON, 0.27 MiB) takes no parameters and every
// body that does is under 6 KiB, so a full memo holds well under 1 MiB
// of rendered bytes beside a 24.7 MiB session heap.
const maxResultMemo = 64

// maxSweepExpandMemo bounds the expansion memo: distinct concurrent
// sweep specs per session are rare (one fleet runs one spec), so a few
// entries cover the working set without letting a spec-fuzzing client
// grow the map unboundedly.
const maxSweepExpandMemo = 4

// NewSession returns a session for cfg without doing any work yet.
func NewSession(cfg Config) *Session {
	se := &Session{
		cfg:         cfg,
		persist:     newMemo[persistKey, core.PersistenceResult]("persist", 0),
		inferRuns:   newMemo[canonKey, *infer.Output]("infer", 0),
		sweepExpand: newMemo[string, []simulate.Scenario]("sweep_expand", maxSweepExpandMemo),
		results:     newMemo[canonKey, *Answer]("result", maxResultMemo),
		held:        newHeldBytes(),
	}
	se.results.evicted = (*Answer).release
	return se
}

// NewSessionFromStudy wraps an already-built Study (one assembled by
// NewStudyFromInputs or loaded from a dataset cache) in the query API.
func NewSessionFromStudy(s *Study) *Session {
	se := NewSession(s.Config)
	se.study = s
	se.studyOnce.Do(func() {}) // mark the gate resolved
	return se
}

// Config returns the session's configuration.
func (se *Session) Config() Config { return se.cfg }

// Study returns the shared Study, building it on first use. Safe for
// concurrent callers; every experiment goes through this gate.
func (se *Session) Study() (*Study, error) {
	se.studyOnce.Do(func() {
		se.study, se.studyErr = NewStudy(se.cfg)
	})
	return se.study, se.studyErr
}

// baseEngine returns the study's pristine what-if engine. It is only
// ever cloned or leased from, never applied to.
func (se *Session) baseEngine() (*simulate.Engine, error) {
	s, err := se.Study()
	if err != nil {
		return nil, err
	}
	return s.baseEngine()
}

// Warm eagerly builds the study and asks it for its base what-if engine
// — which a study from a dataset source already holds, so the second
// step costs nothing there. Servers call it before accepting traffic,
// and to tell construction failures (the session's fault) from per-query
// errors (the query's fault). Snapshot-only studies have no engine to
// warm; Warm succeeds once the study is built, and what-if/sweep calls
// fail per-query with ErrNeedsGroundTruth.
func (se *Session) Warm() error {
	s, err := se.Study()
	if err != nil {
		return err
	}
	if !s.HasGroundTruth() {
		return nil
	}
	_, err = s.baseEngine()
	return err
}

// WhatIf answers one scenario against the session's base state. The call
// runs on a scratch engine leased from the memoized base engine
// (simulate.Engine.Scratch): a copy-on-write clone that is rolled back
// and kept for the next call whatever the scenario's events — link,
// prefix or policy — so concurrent what-ifs are independent, the base
// state is never mutated, and a request pays for what its events touch,
// not for a clone. The lease's Delta is rebuilt by the engine's next
// scenario, so the report keeps a copy of its own, in exact-size slices.
// For chained event sequences build one Study.WhatIfEngine and Apply
// repeatedly instead. ctx gates the call (an already-canceled context
// returns immediately); a single incremental apply is too fast to
// interrupt mid-flight.
func (se *Session) WhatIf(ctx context.Context, sc simulate.Scenario) (*WhatIfReport, error) {
	s, err := se.Study()
	if err != nil {
		return nil, err
	}
	base, err := s.baseEngine()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var rep *WhatIfReport
	_, err = base.Scratch(base.Parallelism(), sc, func(delta *simulate.Delta, _ *simulate.Engine) error {
		rep = s.whatIfReport(sc, ownDelta(delta))
		return nil
	})
	return rep, err
}

// ownDelta copies a leased Delta into slices of its own, sized exactly;
// an empty list stays nil, as the lease has it. The shifts' Vantage lists
// are carved from one array, as the engine builds them.
func ownDelta(d *simulate.Delta) *simulate.Delta {
	c := *d
	c.Shifts = slices.Clone(d.Shifts)
	n := 0
	for _, sh := range d.Shifts {
		n += len(sh.Vantage)
	}
	vantage := make([]bgp.ASN, 0, n)
	for i := range c.Shifts {
		if v := c.Shifts[i].Vantage; len(v) > 0 {
			start := len(vantage)
			vantage = append(vantage, v...)
			c.Shifts[i].Vantage = vantage[start:len(vantage):len(vantage)]
		}
	}
	c.ReachDeltas = slices.Clone(d.ReachDeltas)
	c.PeerBestChanged = maps.Clone(d.PeerBestChanged)
	return &c
}

// SweepScenarios expands a sweep spec against the session's base
// topology into the concrete scenario list a sweep will run, without
// running anything. Servers use it to reject a bad spec before any
// stream output is written. ctx cancels the expansion — generator
// enumeration over a large topology (every link, every
// (prefix, attacker) pair) is real work, and a disconnected client
// stops it mid-family like every other Session entry point.
func (se *Session) SweepScenarios(ctx context.Context, spec sweep.Spec) ([]simulate.Scenario, error) {
	base, err := se.baseEngine()
	if err != nil {
		return nil, err
	}
	return sweep.Expand(ctx, base.Topology(), spec)
}

// SweepScenariosCached is SweepScenarios behind a small per-session
// memo keyed by the spec's canonical JSON. The shard endpoint uses it:
// a distributed coordinator posts every shard of one sweep with the
// same spec, and expansion over a large topology is real work worth
// paying once per fleet member, not once per shard. Errors are not
// cached (a canceled expansion must not poison later shards). The
// returned slice is shared — callers must not mutate it.
func (se *Session) SweepScenariosCached(ctx context.Context, spec sweep.Spec) ([]simulate.Scenario, error) {
	canon, err := json.Marshal(spec)
	if err != nil {
		return se.SweepScenarios(ctx, spec)
	}
	return se.sweepExpand.get(string(canon), func() ([]simulate.Scenario, error) {
		return se.SweepScenarios(ctx, spec)
	})
}

// Sweep runs a batch of scenarios against the session's base state on
// the sharded sweep executor: workers run on scratch engines leased from
// the memoized base engine (the ones what-ifs and earlier sweeps left
// idle first), records stream through opts.OnImpact in
// scenario index order, and the aggregate summarizes the whole batch.
// ctx cancels the sweep between scenarios. The base state is never
// mutated, so concurrent sweeps and what-ifs are independent.
//
// Worker counts are clamped to simulate.ScratchLimit (2x GOMAXPROCS):
// the session is the serving facade, so opts.Workers is wire-derived
// (POST /sweep, /run/sweep, repro -p workers=...) and sweep work is
// CPU-bound — beyond the core count extra shards only cost scratch-engine
// memory. A worker holds one scratch engine at a time, so the base's idle
// list keeps every engine a clamped sweep cloned for the next sweep or
// what-if. Callers that really want more shards use sweep.Run directly.
func (se *Session) Sweep(ctx context.Context, scenarios []simulate.Scenario, opts sweep.Options) (*sweep.Aggregate, error) {
	base, err := se.baseEngine()
	if err != nil {
		return nil, err
	}
	if limit := simulate.ScratchLimit(); opts.Workers > limit {
		opts.Workers = limit
	}
	return sweep.Run(ctx, base, scenarios, opts)
}

// LookingGlass returns a query server over the study's vantage tables
// (the policyscope lookingglass backend), built once.
func (se *Session) LookingGlass() (*lookingglass.Server, error) {
	se.lgOnce.Do(func() {
		s, err := se.Study()
		if err != nil {
			se.lgErr = err
			return
		}
		if !s.HasGroundTruth() {
			se.lgErr = &NeedsGroundTruthError{Op: "looking glass"}
			return
		}
		tables := make(map[bgp.ASN]*bgp.RIB, len(s.Peers))
		for _, p := range s.Peers {
			tables[p] = s.Result.Tables[p]
		}
		se.lg = lookingglass.NewServer(tables)
	})
	return se.lg, se.lgErr
}

// Infer runs the named relationship-inference algorithm over the
// session's observed paths, with parameters decoded strictly from raw
// JSON (empty keeps the algorithm's defaults). Outputs are memoized
// per (algorithm, canonical params), so the bakeoff experiment, the
// ensemble and repeated /infer calls share one run. Name and parameter
// validation happens before any study work: an unknown algorithm
// returns *experiment.NotFoundError and bad parameters
// *experiment.ParamError without paying for dataset construction.
func (se *Session) Infer(ctx context.Context, algo string, raw json.RawMessage) (*infer.Output, error) {
	params, err := infer.Default.DecodeJSONParams(algo, raw)
	if err != nil {
		return nil, err
	}
	canon, err := json.Marshal(params)
	if err != nil {
		return nil, err
	}
	_, span := obs.StartSpan(ctx, "infer:"+algo)
	defer span.End()
	return se.inferRuns.get(canonKey{name: algo, params: string(canon)}, func() (*infer.Output, error) {
		s, err := se.Study()
		if err != nil {
			return nil, err
		}
		in := infer.Input{Paths: s.SnapshotPaths(), VantagePoints: s.Peers}
		return infer.Default.Run(ctx, in, algo, params)
	})
}

// InferKV is Infer with key=value parameter overrides (the CLI form).
func (se *Session) InferKV(ctx context.Context, algo string, kv []string) (*infer.Output, error) {
	params, err := infer.Default.DecodeKV(algo, kv)
	if err != nil {
		return nil, err
	}
	canon, err := json.Marshal(params)
	if err != nil {
		return nil, err
	}
	return se.Infer(ctx, algo, canon)
}

// InferAlgorithms returns the serializable inference-algorithm catalog.
// Like Experiments, it is process-wide.
func InferAlgorithms() []experiment.Info { return infer.Default.Infos() }

// Experiments returns the serializable experiment catalog in run order.
// The catalog is process-wide: it does not depend on any session's
// configuration or dataset.
func Experiments() []experiment.Info { return catalog.Infos() }

// ValidateKV checks an experiment name and key=value parameter
// overrides against the catalog without running anything — the
// fail-fast check a CLI performs before paying for dataset
// construction. It returns *experiment.NotFoundError for an unknown
// name and *experiment.ParamError for undecodable parameters.
func ValidateKV(name string, kv []string) error {
	_, err := catalog.DecodeKV(name, kv)
	return err
}

// Run executes the named experiment. ctx cancels an in-flight run (a
// sweep stops between scenarios; a disconnected HTTP client aborts its
// request). params is nil for defaults or a pointer of the experiment's
// parameter type (see Experiments for the catalog). For wire-shaped
// inputs use RunJSON / RunKV. Equal parameter sets share one computed
// result (see Answer), which callers must not mutate.
func (se *Session) Run(ctx context.Context, name string, params any) (experiment.Result, error) {
	a, err := se.answer(ctx, name, params)
	if err != nil {
		return nil, err
	}
	return a.Result, nil
}

// answer is the one funnel every experiment execution goes through:
// instrumentation, and the result memo for every experiment that did not
// opt out of it (def.scenarioParams). A failed or canceled computation
// leaves nothing behind.
func (se *Session) answer(ctx context.Context, name string, params any) (*Answer, error) {
	e, err := catalog.Lookup(name)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.NewParams != nil && nilParams(params) {
		params = e.NewParams()
	}
	key, memoize := canonKey{name: name}, !e.NoMemo
	if memoize {
		canon, err := json.Marshal(params)
		if err != nil {
			return nil, &experiment.ParamError{Name: name, Err: err}
		}
		key.params = string(canon)
	}
	ctx, span := obs.StartSpan(ctx, "experiment:"+name)
	mExperimentRuns.Inc()
	var start time.Time
	if obs.Enabled() {
		start = time.Now()
	}
	computed := false
	compute := func() (*Answer, error) {
		computed = true
		res, err := e.Run(ctx, se, params)
		if err != nil {
			return nil, err
		}
		a := &Answer{Result: res, name: name}
		if memoize {
			a.held = se.held
		}
		return a, nil
	}
	var a *Answer
	if memoize {
		a, err = se.results.get(key, compute)
		if computed {
			span.Note("memo miss")
		} else {
			span.Note("memo hit")
		}
	} else {
		a, err = compute()
	}
	if !start.IsZero() {
		mExperimentSeconds.ObserveSince(start)
	}
	span.End()
	if err != nil {
		mExperimentErrors.Inc()
		return nil, err
	}
	return a, nil
}

// nilParams reports whether params asks for the defaults: an untyped nil,
// or a nil pointer of the experiment's parameter type — one question, so
// one memo key.
func nilParams(params any) bool {
	if params == nil {
		return true
	}
	v := reflect.ValueOf(params)
	return v.Kind() == reflect.Pointer && v.IsNil()
}

// AnswerJSON is RunJSON returning the answer with its wire bodies — what
// a server writes, so that a repeated question costs the wire and not
// the analysis.
func (se *Session) AnswerJSON(ctx context.Context, name string, raw json.RawMessage) (*Answer, error) {
	params, err := catalog.DecodeJSONParams(name, raw)
	if err != nil {
		return nil, err
	}
	return se.answer(ctx, name, params)
}

// RunJSON executes the named experiment with JSON-encoded parameters
// (strict decoding; empty keeps defaults). Decoding happens here; the
// execution funnels through Run, so every wire form shares its
// instrumentation.
func (se *Session) RunJSON(ctx context.Context, name string, raw json.RawMessage) (experiment.Result, error) {
	params, err := catalog.DecodeJSONParams(name, raw)
	if err != nil {
		return nil, err
	}
	return se.Run(ctx, name, params)
}

// RunKV executes the named experiment with key=value parameter
// overrides (the CLI form, e.g. "providers=3").
func (se *Session) RunKV(ctx context.Context, name string, kv []string) (experiment.Result, error) {
	params, err := catalog.DecodeKV(name, kv)
	if err != nil {
		return nil, err
	}
	return se.Run(ctx, name, params)
}
