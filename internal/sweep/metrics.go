package sweep

import "github.com/policyscope/policyscope/obs"

// Sweep executor metrics. The restore-mode counters say whether a
// scenario's scratch engine was kept (journal, every event kind) or
// dropped (reclone, the failure path), and
// the per-worker busy histogram makes parallel efficiency measurable:
// utilization = sum(busy) / (workers × wall), the number the j8_vs_j1
// baseline was missing.
var (
	mSweepRuns = obs.NewCounter("policyscope_sweep_runs_total",
		"Sweep executor runs started.")
	mSweepScenarios = obs.NewCounter("policyscope_sweep_scenarios_total",
		"Scenarios applied by sweep workers.")
	mScenarioSeconds = obs.NewHistogram("policyscope_sweep_scenario_seconds",
		"Per-scenario wall time on a worker (apply + restore).", nil)
	mRestores = obs.NewCounterVec("policyscope_sweep_restore_total",
		"Scenario state restorations by mode: journal — rolled back and the scratch engine kept, every event kind — or reclone — failure path only: the rollback left a prefix unconverged and the engine was dropped.",
		"mode")
	mRestoreJournal    = mRestores.With("journal")
	mRestoreReclone    = mRestores.With("reclone")
	mWorkerBusySeconds = obs.NewHistogram("policyscope_sweep_worker_busy_seconds",
		"Total busy time of one worker over one sweep run (one observation per worker per run).",
		nil)
)
