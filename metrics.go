package policyscope

import "github.com/policyscope/policyscope/obs"

// Session-level metrics: experiment throughput and the hit rates of
// the per-session memos (memo.go). Per-experiment breakdown deliberately stays out of the label
// space — ?trace=1 spans name the experiment per request, and the
// registry has enough entries that per-name counters would dominate
// the exposition.
var (
	mExperimentRuns = obs.NewCounter("policyscope_session_experiment_runs_total",
		"Experiment executions through Session.Run (all wire forms funnel here), result-memo hits included.")
	mExperimentErrors = obs.NewCounter("policyscope_session_experiment_errors_total",
		"Experiment executions that returned an error.")
	mExperimentSeconds = obs.NewHistogram("policyscope_session_experiment_seconds",
		"Wall time of one experiment execution (a result-memo hit is a lookup).", nil)

	mMemo = obs.NewCounterVec("policyscope_session_memo_total",
		"Session memo lookups by cache (result = whole experiment answers, persist = persistence series, infer = inference runs, sweep_expand = sweep scenario expansions) and result.",
		"cache", "result")
	mResultMemoBytes = obs.NewGauge("policyscope_session_result_memo_bytes",
		"Rendered response bytes (JSON and text bodies) the result memos currently hold, summed over live sessions.")
)
