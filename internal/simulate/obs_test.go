package simulate

// Guards for ISSUE 8's hard constraint: instrumentation must not
// regress the PR 5 zero-alloc core. The AllocsPerRun tests compare the
// instrumented paths with obs enabled vs disabled — counters are
// unconditional atomics and timing sites are branch-gated, so the two
// must be allocation-identical. BenchmarkConvergeObsOn/Off feed the
// scripts/bench_obs.sh overhead gate (≤3%).

import (
	"math"
	"testing"
	"time"

	"github.com/policyscope/policyscope/obs"
)

// TestApplyRollbackAllocIdenticalWithObs: the sweep executor's journal
// cycle (Checkpoint → Apply → Rollback) allocates exactly the same
// with metrics enabled and disabled.
func TestApplyRollbackAllocIdenticalWithObs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	topo, vantage := equivalenceTopo(t, 200, 11)
	en, err := NewEngine(topo, Options{VantagePoints: vantage, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	edges := topo.Graph.Edges()
	if len(edges) == 0 {
		t.Fatal("no edges")
	}
	cycle := func() {
		en.Checkpoint()
		if _, err := en.Apply(Scenario{Events: []Event{FailLink(edges[7].A, edges[7].B)}}); err != nil {
			t.Fatal(err)
		}
		if !en.Rollback() {
			t.Fatal("rollback failed")
		}
	}
	// Warm pools and arenas so both measurements see steady state.
	for i := 0; i < 3; i++ {
		cycle()
	}
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)
	on := testing.AllocsPerRun(20, cycle)
	obs.SetEnabled(false)
	off := testing.AllocsPerRun(20, cycle)
	if on != off {
		t.Errorf("apply/rollback allocs: obs on %.1f, obs off %.1f — instrumentation changed the allocation profile", on, off)
	}

	// The cycle above includes the pre-batch best records Apply keeps
	// for Delta.PeerBestChanged. Arming and reading them costs one map
	// per vantage table plus a result map sized by the table count, and
	// nothing per prefix: a batch that writes no vantage entry pays no
	// more than this, however many prefixes it disturbs.
	armed := testing.AllocsPerRun(20, func() {
		en.e.beginBestChanges()
		en.e.endBestChanges(nil)
	})
	if max := float64(2 * len(en.e.tables)); armed > max {
		t.Errorf("arming the best-change records: %.1f allocs for %d tables and %d prefixes, want at most %.0f",
			armed, len(en.e.tables), len(en.e.prefixes), max)
	}
}

// TestConvergeAllocIdenticalWithObs: metrics do not change what a full
// cold convergence allocates. The gated timing sites themselves must
// allocate nothing — that part is exact. The two whole-run totals
// (~56k each) are only held to within one allocation per prefix:
// testing.AllocsPerRun counts every malloc in the process, and runtime
// background work (GC workers, sync.Pool internals) moves the totals by
// a handful between measurements, while instrumentation that leaked
// into the propagation path would cost at least one per prefix.
func TestConvergeAllocIdenticalWithObs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	topo, vantage := equivalenceTopo(t, 120, 5)
	run := func() {
		res, err := Run(topo, Options{VantagePoints: vantage, Parallelism: 1})
		if err != nil || len(res.Tables) == 0 {
			t.Fatalf("run: %v", err)
		}
	}
	run() // warm shared intern state
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)
	if sites := testing.AllocsPerRun(100, func() {
		mConvergeSeconds.ObserveSince(time.Now())
		observeApplyEnd(time.Now())
	}); sites != 0 {
		t.Errorf("gated timing sites allocate %.1f per pass, want 0", sites)
	}
	on := testing.AllocsPerRun(5, run)
	obs.SetEnabled(false)
	off := testing.AllocsPerRun(5, run)
	if d := math.Abs(on - off); d >= float64(len(topo.PrefixOrigin)) {
		t.Errorf("converge allocs: obs on %.1f, obs off %.1f over %d prefixes — instrumentation changed the allocation profile",
			on, off, len(topo.PrefixOrigin))
	}
}

// TestEngineMetricsAdvance: the engine counters actually move — a
// converge pass counts its prefixes and activations, Checkpoint/
// Rollback count their cycles, and the atom gauges describe the last
// partition.
func TestEngineMetricsAdvance(t *testing.T) {
	topo, vantage := equivalenceTopo(t, 120, 5)

	runs0 := counterValue(t, "policyscope_converge_runs_total")
	acts0 := counterValue(t, "policyscope_converge_activations_total")
	en, err := NewEngine(topo, Options{VantagePoints: vantage, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, "policyscope_converge_runs_total"); got <= runs0 {
		t.Errorf("converge runs did not advance: %d -> %d", runs0, got)
	}
	if got := counterValue(t, "policyscope_converge_activations_total"); got <= acts0 {
		t.Errorf("activations did not advance: %d -> %d", acts0, got)
	}

	cps0 := counterValue(t, "policyscope_journal_checkpoints_total")
	rbs0 := counterValue(t, "policyscope_journal_rollbacks_total")
	edges := topo.Graph.Edges()
	disturbed0, written0 := mApplyDisturbed.Count(), mApplyEntriesRewritten.Count()
	materialized0, materializedSum0 := mApplyMaterialized.Count(), mApplyMaterialized.Sum()
	en.Checkpoint()
	delta, err := en.Apply(Scenario{Events: []Event{FailLink(edges[0].A, edges[0].B)}})
	if err != nil {
		t.Fatal(err)
	}
	if !en.Rollback() {
		t.Fatal("rollback failed")
	}
	if got := mApplyMaterialized.Count(); got != materialized0+1 {
		t.Errorf("materialized-ASes observations %d -> %d, want +1 per Apply", materialized0, got)
	}
	// Every AS whose best moved was materialized (the converse is what
	// the histogram is for).
	if got := mApplyMaterialized.Sum() - materializedSum0; delta.ShiftedASes() == 0 || got < float64(delta.ShiftedASes()) {
		t.Errorf("Apply shifted %d ASes and observed %v materialized", delta.ShiftedASes(), got)
	}
	if got := mApplyDisturbed.Count(); got != disturbed0+1 {
		t.Errorf("disturbed-prefixes observations %d -> %d, want +1 per Apply", disturbed0, got)
	}
	if got := mApplyEntriesRewritten.Count(); got != written0+1 {
		t.Errorf("entries-rewritten observations %d -> %d, want +1 per Apply", written0, got)
	}
	if got := counterValue(t, "policyscope_journal_checkpoints_total"); got != cps0+1 {
		t.Errorf("checkpoints %d -> %d, want +1", cps0, got)
	}
	if got := counterValue(t, "policyscope_journal_rollbacks_total"); got != rbs0+1 {
		t.Errorf("rollbacks %d -> %d, want +1", rbs0, got)
	}

	// A batch that is not link failures only submits the pre-existing
	// prefixes its events name: a no_upstream tag its one prefix, a
	// withdrawal none (the withdrawn prefix is dropped, not re-converged).
	stub, providers, prefix := multihomedStub(t, topo)
	for _, tc := range []struct {
		ev   Event
		want float64
	}{{TagNoUpstream(prefix, providers[0]), 1}, {WithdrawPrefix(prefix), 0}} {
		sum0 := mApplyDisturbed.Sum()
		if _, err := en.Clone().Apply(Scenario{Events: []Event{tc.ev}}); err != nil {
			t.Fatal(err)
		}
		if got := mApplyDisturbed.Sum() - sum0; got != tc.want {
			t.Errorf("%s on AS %v's %v observed %v disturbed prefixes, want %v", tc.ev.Kind, stub, prefix, got, tc.want)
		}
	}

	// A what-if repeated on a reused scratch engine copies the routes its
	// hijacked prefix re-converged to into the region its first rollback
	// rewound, not onto the heap.
	other := en.e.prefixes[0]
	attacker := providers[0]
	if topo.PrefixOrigin[other] == attacker {
		attacker = providers[1]
	}
	hijack := Scenario{Events: []Event{WithdrawPrefix(other), AnnouncePrefix(other, attacker)}}
	observe := func(*Delta, *Engine) error { return nil }
	for lease := 0; lease < 2; lease++ {
		recycled0, persisted0 := mCaptureRecycled.Value(), mCapturePersisted.Value()
		if restored, err := en.Scratch(1, hijack, observe); err != nil || !restored {
			t.Fatalf("hijack lease %d: restored=%v err=%v", lease, restored, err)
		}
		recycled, persisted := mCaptureRecycled.Value()-recycled0, mCapturePersisted.Value()-persisted0
		if recycled == 0 || persisted != 0 {
			t.Errorf("hijack lease %d: capture routes recycled +%d, persisted +%d; want recycled only", lease, recycled, persisted)
		}
	}

	stats := en.Atoms()
	if stats.Prefixes > 0 {
		if mAtomPrefixes.Value() <= 0 || mAtomClasses.Value() <= 0 {
			t.Errorf("atom gauges not set: prefixes=%d classes=%d", mAtomPrefixes.Value(), mAtomClasses.Value())
		}
	}
}

// counterValue reads a counter off the default registry by name.
func counterValue(t *testing.T, name string) uint64 {
	t.Helper()
	c := obs.NewCounter(name, "")
	return c.Value()
}

// BenchmarkConvergeObsOn / BenchmarkConvergeObsOff bracket the cost of
// the always-on instrumentation: identical workloads, timing capture
// and counters live vs timing capture disabled. scripts/bench_obs.sh
// gates the delta at ≤3%.
func benchmarkConvergeObs(b *testing.B, enabled bool) {
	topo, vantage := convergeBenchSetup(b)
	defer obs.SetEnabled(true)
	obs.SetEnabled(enabled)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(topo, Options{VantagePoints: vantage})
		if err != nil || len(res.Tables) == 0 {
			b.Fatalf("err %v", err)
		}
	}
}

func BenchmarkConvergeObsOn(b *testing.B)  { benchmarkConvergeObs(b, true) }
func BenchmarkConvergeObsOff(b *testing.B) { benchmarkConvergeObs(b, false) }
