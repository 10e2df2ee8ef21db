package simulate

import (
	"time"

	"github.com/policyscope/policyscope/obs"
)

// Process-wide engine metrics, resolved once at init so every hot-path
// touch is a bare atomic op. Counters aggregate across all engines in
// the process (base + sweep-worker clones): they answer "what is this
// process doing", not "what did one engine do" — per-run numbers stay
// on the Result/Delta structs.
//
// Hot-path rule (see DESIGN.md "Observability"): nothing inside the
// per-activation loops touches these directly. Activation counts
// accumulate in plain ints on workerState and flush to the atomic in
// putState; wall-time capture sites sit outside the loops and are
// gated on obs.Enabled so bench_obs.sh can measure the delta.
var (
	mConvergeRuns = obs.NewCounter("policyscope_converge_runs_total",
		"Convergence passes (full or subset) executed by any engine in the process.")
	mConvergePrefixes = obs.NewCounter("policyscope_converge_prefixes_total",
		"Prefixes submitted to convergence passes.")
	mConvergeUnconverged = obs.NewCounter("policyscope_converge_unconverged_total",
		"Prefixes that exhausted their activation budget during convergence passes.")
	mConvergeSeconds = obs.NewHistogram("policyscope_converge_seconds",
		"Wall time of one convergence pass.", nil)
	mActivations = obs.NewCounter("policyscope_converge_activations_total",
		"AS activations drained across all convergence and reconvergence loops.")
	mStatesCreated = obs.NewCounter("policyscope_engine_worker_states_created_total",
		"Worker states newly allocated (pool miss).")
	mStatesReused = obs.NewCounter("policyscope_engine_worker_states_reused_total",
		"Worker states pulled from the shared pool (pool hit).")

	mAtomPrefixes = obs.NewGauge("policyscope_atom_prefixes",
		"Prefixes covered by the most recently built atom partition.")
	mAtomClasses = obs.NewGauge("policyscope_atom_classes",
		"Policy-equivalence classes in the most recently built atom partition (dedup ratio = prefixes/classes).")

	mApplies = obs.NewCounter("policyscope_scenario_applies_total",
		"Scenario batches applied (incremental reconvergence).")
	mApplySeconds = obs.NewHistogram("policyscope_scenario_apply_seconds",
		"Wall time of one scenario Apply.", nil)
	mApplyDisturbed = obs.NewHistogram("policyscope_scenario_disturbed_prefixes",
		"Prefixes one scenario Apply submitted to re-convergence: the forest-crossing disturb set of a link-failure-only batch, otherwise the pre-existing prefixes the events name (all of them for a link event; for a neighbor-wide local_pref, those whose forest lets a route cross the session, plus unconverged ones; one for sa_toggle / no_upstream / per-prefix local_pref; none for withdraw / announce), plus newly announced ones.",
		applyCountBuckets)
	mApplyMaterialized = obs.NewHistogram("policyscope_scenario_materialized_ases",
		"ASes whose candidate set one scenario Apply's incremental re-convergences rebuilt, summed over its disturbed prefixes: divided by policyscope_scenario_disturbed_prefixes it says whether a slow Apply visited many prefixes or went deep in each. An AS whose changed candidate cannot displace its best is not materialized and not counted.",
		applyCountBuckets)
	mApplyEntriesRewritten = obs.NewHistogram("policyscope_scenario_vantage_entries_rewritten",
		"Vantage table entries (vantage AS, prefix) one scenario Apply wrote at least once.",
		applyCountBuckets)
	// One child per thing an engine can un-share from its clone family,
	// resolved here so the write paths touch a bare atomic.
	mCowCopies = obs.NewCounterVec("policyscope_engine_cow_copies_total",
		"Structures an engine copied before writing them: best-forest rows shared with its clone family, vantage tables (layered over the shared one; entries copy as they are written), topology components (the graph, the policy map and the prefix maps once per engine; a policy or an AS description once per Apply that edits it, the original being the rollback pre-image).",
		"kind")
	mCowForestRow = mCowCopies.With("forest_row")
	mCowTable     = mCowCopies.With("table")
	mCowTopology  = mCowCopies.With("topology")
	// What a vantage-entry capture did with each candidate route it
	// installed (captureVantage).
	mCaptureRoutes = obs.NewCounterVec("policyscope_engine_capture_routes_total",
		"Candidate routes vantage-entry captures installed: kept — the entry already held the same route from that neighbor, and it stays installed — or copied out of the worker's arenas because it moved or is new, into storage a rollback hands back (recycled: a scenario applied under a checkpoint, carved from the engine's region) or onto the heap (persisted: no checkpoint armed). A cold convergence persists every route; a scenario's rewrite of an entry keeps what it did not move.",
		"result")
	mCaptureKept      = mCaptureRoutes.With("kept")
	mCaptureRecycled  = mCaptureRoutes.With("recycled")
	mCapturePersisted = mCaptureRoutes.With("persisted")
	// What became of each scratch engine a base leased out (lease.go).
	mScratch = obs.NewCounterVec("policyscope_engine_scratch_total",
		"Scratch-engine lease events: a what-if or sweep scenario ran on an idle scratch engine standing at its base's state (reused) or on a new clone of the base (cloned), and an engine was dropped (discarded) — failure path only: the observer returned an error or panicked, or the rollback left a prefix unconverged that the base converges.",
		"event")
	mScratchReused    = mScratch.With("reused")
	mScratchCloned    = mScratch.With("cloned")
	mScratchDiscarded = mScratch.With("discarded")
	mCheckpoints      = obs.NewCounter("policyscope_journal_checkpoints_total",
		"Checkpoints armed on any engine.")
	mRollbacks = obs.NewCounter("policyscope_journal_rollbacks_total",
		"Rollbacks that restored the checkpointed state.")
	// Registered for the readers it still has (bench/ derives
	// simulate.rollback_refused_share from it); nothing increments it:
	// the journal takes every batch. It leaves with ROADMAP item 1(c).
	_ = obs.NewCounter("policyscope_journal_rollbacks_unsupported_total",
		"Always 0: the rollback journal undoes every event kind.")
	// One child per record stack of applyJournal, indexed by undoKind.
	mUndo = obs.NewCounterVec("policyscope_journal_undo_records_total",
		"Undo-log records rollbacks replayed: forest rows put back (row), vantage table entries restored (entry), link events reversed (link), policies swapped back (policy), prefix withdrawals, announcements and unconverged marks reverted (prefix).",
		"kind")
	mUndoRecords = [numUndoKinds]*obs.Counter{
		undoRow: mUndo.With("row"), undoEntry: mUndo.With("entry"), undoLink: mUndo.With("link"),
		undoPolicy: mUndo.With("policy"), undoPrefix: mUndo.With("prefix"),
	}
)

// applyCountBuckets spans the per-Apply work counts from a stub's
// single prefix to every entry of a large table set, in powers of four.
var applyCountBuckets = []float64{0, 1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144}

// observeApplyEnd closes the Apply timing started under obs.Enabled. A
// plain deferred func (not a closure) so the defer record stays
// open-coded and Apply's allocation profile is identical with
// instrumentation on or off.
func observeApplyEnd(start time.Time) {
	if !start.IsZero() {
		mApplySeconds.ObserveSince(start)
	}
}
