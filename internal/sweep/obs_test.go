package sweep

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/topogen"
	"github.com/policyscope/policyscope/obs"
)

// TestWorkerStatsAndRestoreMetrics: every worker reports its stats,
// the per-worker busy times cover the scenarios applied, and a
// link-failure sweep restores through the journal (no re-clones).
func TestWorkerStatsAndRestoreMetrics(t *testing.T) {
	topo, opts := buildTestTopo(t, 150, 7)
	base := newBase(t, topo, opts)
	scenarios, err := Expand(context.Background(), base.Topology(), Spec{
		Generators: []Generator{{Kind: KindAllSingleLinkFailures}},
	})
	if err != nil {
		t.Fatal(err)
	}
	scenarios = scenarios[:24]

	journal0 := mRestoreJournal.Value()
	scen0 := mSweepScenarios.Value()

	var (
		mu    sync.Mutex
		stats []WorkerStats
	)
	agg, err := Run(context.Background(), base, scenarios, Options{
		Workers: 4,
		OnWorkerDone: func(ws WorkerStats) {
			mu.Lock()
			stats = append(stats, ws)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Scenarios != len(scenarios) {
		t.Fatalf("ran %d of %d scenarios", agg.Scenarios, len(scenarios))
	}
	if len(stats) != 4 {
		t.Fatalf("got %d worker reports, want 4", len(stats))
	}
	total, busy := 0, time.Duration(0)
	for _, ws := range stats {
		total += ws.Scenarios
		busy += ws.Busy
		if ws.Scenarios > 0 && ws.Busy <= 0 {
			t.Errorf("worker %d applied %d scenarios in zero busy time", ws.Worker, ws.Scenarios)
		}
		if ws.Reclones != 0 {
			t.Errorf("worker %d re-cloned %d times on a link-only sweep", ws.Worker, ws.Reclones)
		}
	}
	if total != len(scenarios) {
		t.Errorf("workers report %d scenarios, want %d", total, len(scenarios))
	}
	if busy <= 0 {
		t.Error("no busy time recorded")
	}
	if got := mRestoreJournal.Value() - journal0; got != uint64(len(scenarios)) {
		t.Errorf("journal restores advanced by %d, want %d", got, len(scenarios))
	}
	if got := mSweepScenarios.Value() - scen0; got != uint64(len(scenarios)) {
		t.Errorf("scenario counter advanced by %d, want %d", got, len(scenarios))
	}
}

// scratchEvents reads the engine lease's counters off the registry.
func scratchEvents() (reused, cloned, discarded uint64) {
	vec := obs.NewCounterVec("policyscope_engine_scratch_total", "", "event")
	return vec.With("reused").Value(), vec.With("cloned").Value(), vec.With("discarded").Value()
}

// policyBatch is 64 scenarios over the four policy and prefix families —
// hijacks, local-pref flips, withdrawals, no-upstream flips — 16 of each.
func policyBatch(t *testing.T, topo *topogen.Topology) []simulate.Scenario {
	t.Helper()
	var flips []Generator
	for _, as := range topo.Order[:12] {
		flips = append(flips, Generator{Kind: KindLocalPrefFlips, AS: as, Values: []uint32{50, 200}})
	}
	var batch []simulate.Scenario
	for _, gens := range [][]Generator{
		{{Kind: KindHijacks, Attackers: []bgp.ASN{topo.Order[len(topo.Order)/3], topo.Order[2*len(topo.Order)/3]}}},
		flips,
		{{Kind: KindPrefixWithdrawals}},
		{{Kind: KindNoUpstreamFlips}},
	} {
		family, err := Expand(context.Background(), topo, Spec{Generators: gens})
		if err != nil {
			t.Fatalf("expand %s: %v", gens[0].Kind, err)
		}
		const perFamily = 16
		if len(family) < perFamily {
			t.Fatalf("family %s has %d scenarios, need %d", gens[0].Kind, len(family), perFamily)
		}
		for j := 0; j < perFamily; j++ {
			batch = append(batch, family[j*(len(family)/perFamily)])
		}
	}
	return batch
}

// TestRunsShareScratchEngines: the engines one Run warmed serve the next
// Run on the same base, and serve it the same bytes — records of later
// calls equal those of workers {1, 4, 8} on bases that have never lent
// anything out — whatever the scenarios' event kinds: a batch of policy
// and prefix events discards no engine and re-clones for no scenario,
// exactly like a batch of link failures. A one-worker call after a
// four-worker one runs every scenario on one engine.
func TestRunsShareScratchEngines(t *testing.T) {
	topo, opts := buildTestTopo(t, 150, 7)
	links, err := Expand(context.Background(), topo, Spec{
		Generators: []Generator{{Kind: KindAllSingleLinkFailures, Max: 96}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []struct {
		name      string
		scenarios []simulate.Scenario
	}{{"links", links}, {"policy", policyBatch(t, topo)}} {
		t.Run(family.name, func(t *testing.T) { runsShareScratchEngines(t, topo, opts, family.scenarios) })
	}
}

func runsShareScratchEngines(t *testing.T, topo *topogen.Topology, opts simulate.Options, scenarios []simulate.Scenario) {
	var want string
	for _, workers := range []int{1, 4, 8} {
		records, _ := runCollect(t, newBase(t, topo, opts), scenarios, workers)
		got := mustJSON(t, records)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d on a fresh base: records differ from workers=1", workers)
		}
	}

	base := newBase(t, topo, opts)
	var (
		peeks   int
		engines map[*simulate.Engine]bool
	)
	// peek leases an empty scenario from inside a one-worker call's sink,
	// where no lease is out: the engine it gets is the one on top of the
	// idle list, and a lease that changes nothing puts it back on top.
	peek := func() {
		peeks++
		if _, err := base.Scratch(1, simulate.Scenario{Name: "peek"}, func(_ *simulate.Delta, s *simulate.Engine) error {
			engines[s] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for call, workers := range []int{1, 4, 4, 1} {
		reused0, cloned0, discarded0 := scratchEvents()
		var reclones int
		var mu sync.Mutex
		var records []*Impact
		peeks, engines = 0, map[*simulate.Engine]bool{}
		_, err := Run(context.Background(), base, scenarios, Options{
			Workers: workers,
			OnImpact: func(imp *Impact) error {
				records = append(records, imp)
				if workers == 1 {
					peek()
				}
				return nil
			},
			OnWorkerDone: func(ws WorkerStats) {
				mu.Lock()
				reclones += ws.Reclones
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := mustJSON(t, records); got != want {
			t.Fatalf("call %d: records differ from a fresh base's", call)
		}
		reused, cloned, discarded := scratchEvents()
		reused, cloned, discarded = reused-reused0, cloned-cloned0, discarded-discarded0
		if reused+cloned != uint64(len(scenarios)+peeks) || discarded != 0 || reclones != 0 {
			t.Errorf("call %d: %d reused + %d cloned over %d scenarios and %d peeks, %d discarded, %d reclones",
				call, reused, cloned, len(scenarios), peeks, discarded, reclones)
		}
		// One worker on a base that has lent nothing out clones once and
		// reuses that engine for every other scenario; later calls clone
		// only for workers the idle list has no engine for yet.
		if call == 0 && cloned != 1 || call > 0 && cloned > uint64(workers-1) {
			t.Errorf("call %d: %d clones over %d scenarios on %d workers", call, cloned, len(scenarios), workers)
		}
		// The idle list is last in, first out: one worker runs every
		// scenario on the engine it gave back last, also after four workers
		// left four engines idle.
		if workers == 1 && len(engines) != 1 {
			t.Errorf("call %d: one worker ran its scenarios on %d engines", call, len(engines))
		}
	}
}
