package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/topogen"
)

// buildTestTopo generates a small Internet plus vantage options, the
// same shape the scenario-engine property tests use.
func buildTestTopo(t testing.TB, ases int, seed int64) (*topogen.Topology, simulate.Options) {
	t.Helper()
	topo, err := topogen.Generate(topogen.DefaultConfig(ases, seed))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	vantage := make([]bgp.ASN, 0, 8)
	for i, asn := range topo.Order {
		if i%11 == 0 && len(vantage) < 8 {
			vantage = append(vantage, asn)
		}
	}
	return topo, simulate.Options{VantagePoints: vantage}
}

func newBase(t testing.TB, topo *topogen.Topology, opts simulate.Options) *simulate.Engine {
	t.Helper()
	base, err := simulate.NewEngine(topo, opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return base
}

// serialImpacts is the reference the executor must match bit for bit:
// each scenario on its own independent engine over the base state.
func serialImpacts(t *testing.T, base *simulate.Engine, scenarios []simulate.Scenario, topShifts int) []*Impact {
	t.Helper()
	out := make([]*Impact, len(scenarios))
	for i, sc := range scenarios {
		eng := base.Clone()
		eng.SetParallelism(1)
		imp, _, err := Apply(eng, sc, topShifts)
		if err != nil {
			imp = &Impact{Name: sc.Name, Events: len(sc.Events), Error: err.Error()}
		}
		imp.Index = i
		out[i] = imp
	}
	return out
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// runCollect executes the sweep and returns the streamed records plus
// the aggregate.
func runCollect(t *testing.T, base *simulate.Engine, scenarios []simulate.Scenario, workers int) ([]*Impact, *Aggregate) {
	t.Helper()
	var records []*Impact
	agg, err := Run(context.Background(), base, scenarios, Options{
		Workers: workers,
		OnImpact: func(imp *Impact) error {
			records = append(records, imp)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	return records, agg
}

// TestSingleLinkFailureSweepDeterminism is the headline property: a
// full single-link-failure sweep produces bit-identical per-scenario
// records to N independent serial engine runs, across worker counts
// {1, 4, 8} and three seeds — and the aggregates agree too. A sampled
// subset is additionally checked against a from-scratch engine of the
// mutated topology (full resimulation), closing the loop on rollback
// fidelity.
func TestSingleLinkFailureSweepDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			topo, opts := buildTestTopo(t, 70, seed)
			base := newBase(t, topo, opts)
			scenarios, err := Expand(context.Background(), topo, Spec{Generators: []Generator{
				{Kind: KindAllSingleLinkFailures},
			}})
			if err != nil {
				t.Fatalf("expand: %v", err)
			}
			if len(scenarios) != topo.Graph.NumEdges() {
				t.Fatalf("expanded %d scenarios for %d edges", len(scenarios), topo.Graph.NumEdges())
			}
			want := serialImpacts(t, base, scenarios, 3)
			wantJSON := mustJSON(t, want)
			var firstAgg string
			for _, workers := range []int{1, 4, 8} {
				records, agg := runCollect(t, base, scenarios, workers)
				if got := mustJSON(t, records); got != wantJSON {
					t.Fatalf("workers=%d: records differ from serial reference\ngot:  %.400s\nwant: %.400s",
						workers, got, wantJSON)
				}
				aggJSON := mustJSON(t, agg)
				if firstAgg == "" {
					firstAgg = aggJSON
				} else if aggJSON != firstAgg {
					t.Fatalf("workers=%d: aggregate differs", workers)
				}
			}
			// Sampled strong check: an independent engine's incremental
			// apply produces both the reference record and, state-wise,
			// exactly what a from-scratch simulation of the mutated
			// topology produces — closing the loop from sweep records
			// back to ground-truth resimulation.
			for i := 0; i < len(scenarios); i += 10 {
				sc := scenarios[i]
				fresh := newBase(t, topo, opts)
				imp, _, err := Apply(fresh, sc, 3)
				if err != nil {
					t.Fatalf("fresh apply %s: %v", sc.Name, err)
				}
				imp.Index = i
				if got, ref := mustJSON(t, imp), mustJSON(t, want[i]); got != ref {
					t.Fatalf("scenario %s: fresh-engine impact differs\ngot:  %s\nwant: %s", sc.Name, got, ref)
				}
				mutated := topo.Clone()
				if err := sc.ApplyToTopology(mutated); err != nil {
					t.Fatalf("mutate %s: %v", sc.Name, err)
				}
				full, err := simulate.Run(mutated, opts)
				if err != nil {
					t.Fatalf("full resim %s: %v", sc.Name, err)
				}
				if diffs := simulate.DiffResults(fresh.Result(), full); len(diffs) > 0 {
					t.Fatalf("scenario %s: incremental state diverges from full resim: %v", sc.Name, diffs[:min(3, len(diffs))])
				}
			}
		})
	}
}

// TestMixedFamilySweepDeterminism drives the restore machinery across
// heterogeneous scenario kinds — journaled link events, and the prefix
// events, multi-event hijacks and policy flips that force a re-clone —
// and demands bit-identical records across worker counts.
func TestMixedFamilySweepDeterminism(t *testing.T) {
	topo, opts := buildTestTopo(t, 60, 7)
	base := newBase(t, topo, opts)

	// A stub with providers anchors the per-AS families.
	var stub bgp.ASN
	for _, asn := range topo.Order {
		if len(topo.Graph.Providers(asn)) >= 2 && len(topo.ASes[asn].Prefixes) > 0 {
			stub = asn
			break
		}
	}
	if stub == 0 {
		t.Fatal("no multihomed stub")
	}
	attacker := topo.Order[len(topo.Order)-1]
	if attacker == stub {
		attacker = topo.Order[0]
	}
	spec := Spec{Generators: []Generator{
		{Kind: KindAllProviderDepeerings, AS: stub},
		{Kind: KindPrefixWithdrawals, Max: 6},
		{Kind: KindHijacks, Attackers: []bgp.ASN{attacker}, Max: 6},
		{Kind: KindLocalPrefFlips, AS: stub, Values: []uint32{40, 200}},
		{Kind: KindNoUpstreamFlips, Origins: []bgp.ASN{stub}},
		{Kind: KindScenarios, Scenarios: []simulate.Scenario{{
			Name:   "combo",
			Events: []simulate.Event{simulate.FailLink(stub, topo.Graph.Providers(stub)[0])},
		}}},
	}}
	scenarios, err := Expand(context.Background(), topo, spec)
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if len(scenarios) < 10 {
		t.Fatalf("expected a meaty mixed sweep, got %d scenarios", len(scenarios))
	}
	want := mustJSON(t, serialImpacts(t, base, scenarios, 3))
	for _, workers := range []int{1, 3, 8} {
		records, _ := runCollect(t, base, scenarios, workers)
		if got := mustJSON(t, records); got != want {
			t.Fatalf("workers=%d: mixed-family records differ from serial reference", workers)
		}
	}
}

// TestSweepLeavesBaseUntouched proves the base engine still answers
// what-ifs from pristine state after a sweep ran over clones of it.
func TestSweepLeavesBaseUntouched(t *testing.T) {
	topo, opts := buildTestTopo(t, 60, 11)
	base := newBase(t, topo, opts)
	scenarios, err := Expand(context.Background(), topo, Spec{Generators: []Generator{
		{Kind: KindAllSingleLinkFailures, Max: 12},
	}})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	before := mustJSON(t, serialImpacts(t, base, scenarios, 3))
	if _, err := Run(context.Background(), base, scenarios, Options{Workers: 4}); err != nil {
		t.Fatalf("run: %v", err)
	}
	after := mustJSON(t, serialImpacts(t, base, scenarios, 3))
	if before != after {
		t.Fatal("sweep mutated the base engine's state")
	}
}

func TestExpandGenerators(t *testing.T) {
	topo, _ := buildTestTopo(t, 60, 5)

	t.Run("caps", func(t *testing.T) {
		scs, err := Expand(context.Background(), topo, Spec{
			Generators:   []Generator{{Kind: KindAllSingleLinkFailures, Max: 5}},
			MaxScenarios: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(scs) != 3 {
			t.Fatalf("caps not honored: %d scenarios", len(scs))
		}
	})

	t.Run("tierFilter", func(t *testing.T) {
		scs, err := Expand(context.Background(), topo, Spec{Generators: []Generator{
			{Kind: KindAllSingleLinkFailures, Tier: 1},
		}})
		if err != nil {
			t.Fatal(err)
		}
		all, _ := Expand(context.Background(), topo, Spec{Generators: []Generator{{Kind: KindAllSingleLinkFailures}}})
		if len(scs) == 0 || len(scs) >= len(all) {
			t.Fatalf("tier filter: %d of %d", len(scs), len(all))
		}
	})

	t.Run("badInputs", func(t *testing.T) {
		cases := []Spec{
			{Generators: []Generator{{Kind: "nope"}}},
			{Generators: []Generator{{Kind: KindAllProviderDepeerings}}},             // no AS
			{Generators: []Generator{{Kind: KindAllProviderDepeerings, AS: 65530}}},  // unknown AS
			{Generators: []Generator{{Kind: KindHijacks}}},                           // no attackers
			{Generators: []Generator{{Kind: KindLocalPrefFlips, AS: topo.Order[0]}}}, // no values
			{Generators: []Generator{{Kind: KindScenarios}}},                         // empty list
			{}, // expands to nothing
		}
		for i, sp := range cases {
			if _, err := Expand(context.Background(), topo, sp); err == nil {
				t.Errorf("case %d: expected error", i)
			}
		}
	})

	t.Run("deterministicNames", func(t *testing.T) {
		a, err := Expand(context.Background(), topo, Spec{Generators: []Generator{{Kind: KindAllSingleLinkFailures}}})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Expand(context.Background(), topo, Spec{Generators: []Generator{{Kind: KindAllSingleLinkFailures}}})
		if mustJSON(t, a) != mustJSON(t, b) {
			t.Fatal("expansion is not deterministic")
		}
		seen := map[string]bool{}
		for _, sc := range a {
			if sc.Name == "" || seen[sc.Name] {
				t.Fatalf("missing or duplicate scenario name %q", sc.Name)
			}
			seen[sc.Name] = true
		}
	})
}

func TestRunCancellation(t *testing.T) {
	topo, opts := buildTestTopo(t, 60, 9)
	base := newBase(t, topo, opts)
	scenarios, err := Expand(context.Background(), topo, Spec{Generators: []Generator{{Kind: KindAllSingleLinkFailures}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	emitted := 0
	_, err = Run(ctx, base, scenarios, Options{
		Workers: 2,
		OnImpact: func(*Impact) error {
			emitted++
			if emitted == 3 {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if emitted >= len(scenarios) {
		t.Fatal("cancellation did not stop the sweep early")
	}

	// A sink error likewise aborts.
	boom := errors.New("client went away")
	_, err = Run(context.Background(), base, scenarios[:8], Options{
		Workers:  2,
		OnImpact: func(*Impact) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want sink error, got %v", err)
	}
}

// TestRunCancellationFlushesWorkerStats pins the partial-stats
// guarantee: a canceled sweep still delivers OnWorkerDone exactly once
// per effective worker before Run returns, and the delivered stats
// cover at least the emitted records — utilization of a half-finished
// run is never reported as zero. (Per-worker counts are NOT asserted
// nonzero: on a single-core runner one worker can legitimately drain
// the whole queue before another is scheduled.)
func TestRunCancellationFlushesWorkerStats(t *testing.T) {
	topo, opts := buildTestTopo(t, 60, 7)
	base := newBase(t, topo, opts)
	scenarios, err := Expand(context.Background(), topo, Spec{Generators: []Generator{
		{Kind: KindAllSingleLinkFailures},
	}})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const workers = 2
	var (
		mu      sync.Mutex
		emitted int
		stats   []WorkerStats
	)
	_, err = Run(ctx, base, scenarios, Options{
		Workers: workers,
		OnImpact: func(*Impact) error {
			emitted++
			if emitted == 5 {
				cancel()
			}
			return nil
		},
		OnWorkerDone: func(ws WorkerStats) {
			mu.Lock()
			stats = append(stats, ws)
			mu.Unlock()
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(stats) != workers {
		t.Fatalf("OnWorkerDone delivered %d times, want once per worker (%d): %+v",
			len(stats), workers, stats)
	}
	seen := make(map[int]bool)
	totalScenarios, totalBusy := 0, time.Duration(0)
	for _, ws := range stats {
		if seen[ws.Worker] {
			t.Fatalf("worker %d reported twice: %+v", ws.Worker, stats)
		}
		seen[ws.Worker] = true
		totalScenarios += ws.Scenarios
		totalBusy += ws.Busy
	}
	if totalScenarios < emitted || totalScenarios == 0 {
		t.Fatalf("flushed stats cover %d scenarios, want >= %d emitted", totalScenarios, emitted)
	}
	if totalBusy <= 0 {
		t.Fatalf("canceled sweep reported zero utilization: %+v", stats)
	}
}

func TestAggregatorShape(t *testing.T) {
	agg := NewAggregator(2)
	for i, shifted := range []int{5, 0, 120, 5, 3000} {
		agg.Add(&Impact{Index: i, Name: fmt.Sprintf("s%d", i), ShiftedASes: shifted,
			LostReachPairs: shifted / 2,
			PeerChanges:    []PeerChange{{Peer: 64512, Prefixes: 1 + i}}})
	}
	agg.Add(&Impact{Index: 5, Name: "bad", Error: "nope"})
	out := agg.Aggregate()
	if out.Scenarios != 6 || out.Errors != 1 || out.ScenariosWithImpact != 4 {
		t.Fatalf("totals wrong: %+v", out)
	}
	wantHist := []int{1, 2, 0, 1, 1}
	for i, b := range out.Histogram {
		if b.Scenarios != wantHist[i] {
			t.Fatalf("histogram[%d]=%d want %d", i, b.Scenarios, wantHist[i])
		}
	}
	if len(out.TopByShift) != 2 || out.TopByShift[0].Index != 4 || out.TopByShift[1].Index != 2 {
		t.Fatalf("top-k wrong: %+v", out.TopByShift)
	}
	if len(out.Peers) != 1 || out.Peers[0].Scenarios != 5 || out.Peers[0].PrefixChanges != 1+2+3+4+5 {
		t.Fatalf("peer summary wrong: %+v", out.Peers)
	}
	// Ties keep the earlier index.
	tie := NewAggregator(2)
	tie.Add(&Impact{Index: 0, Name: "a", ShiftedASes: 7})
	tie.Add(&Impact{Index: 1, Name: "b", ShiftedASes: 7})
	tie.Add(&Impact{Index: 2, Name: "c", ShiftedASes: 7})
	if got := tie.Aggregate().TopByShift; got[0].Index != 0 || got[1].Index != 1 {
		t.Fatalf("tie-break wrong: %+v", got)
	}
}

// TestExpandCanceledContext proves generator enumeration honors
// cancellation: an already-canceled context stops every family —
// including the large hijack grid, whose (prefix x attacker) product is
// the expansion worth interrupting — before it returns scenarios.
func TestExpandCanceledContext(t *testing.T) {
	topo, _ := buildTestTopo(t, 200, 21)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	attackers := topo.Order[:3]
	specs := []Spec{
		{Generators: []Generator{{Kind: KindAllSingleLinkFailures}}},
		{Generators: []Generator{{Kind: KindPrefixWithdrawals}}},
		{Generators: []Generator{{Kind: KindHijacks, Attackers: attackers}}},
	}
	for _, sp := range specs {
		if _, err := Expand(ctx, topo, sp); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", sp.Generators[0].Kind, err)
		}
	}
	// The same specs expand fine on a live context.
	for _, sp := range specs {
		if scs, err := Expand(context.Background(), topo, sp); err != nil || len(scs) == 0 {
			t.Errorf("%s: live expand failed: %v", sp.Generators[0].Kind, err)
		}
	}
}

// BenchmarkSweepLinkBatch: one op runs 64 single-link failures through
// Run at one worker on a 150-AS base — a sweep_links batch in miniature.
// From the second op on, the base's idle list holds the engine the first
// one warmed, so an op counts what the sweep allocates per scenario
// beyond the engine's own storage: its record, the emitter and the
// aggregate.
func BenchmarkSweepLinkBatch(b *testing.B) {
	topo, opts := buildTestTopo(b, 150, 7)
	scenarios, err := Expand(context.Background(), topo, Spec{
		Generators: []Generator{{Kind: KindAllSingleLinkFailures, Max: 64}},
	})
	if err != nil {
		b.Fatal(err)
	}
	base := newBase(b, topo, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), base, scenarios, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPolicySweepLeavesBaseTopologyUntouched: the four sweep_policy
// families — hijacks, local-pref flips, withdrawals and no-upstream
// flips — swept by 4 workers edit Policies and AS descriptions in place
// on engines that share them with the base until their first write. The
// base's Policies and descriptions must come out of the sweep the very
// objects they went in as, deep-equal to a snapshot taken before.
func TestPolicySweepLeavesBaseTopologyUntouched(t *testing.T) {
	topo, opts := buildTestTopo(t, 60, 7)
	base := newBase(t, topo, opts)
	bt := base.Topology()
	var stub bgp.ASN
	for _, asn := range topo.Order {
		if len(topo.Graph.Providers(asn)) >= 2 && len(topo.ASes[asn].Prefixes) > 0 {
			stub = asn
			break
		}
	}
	if stub == 0 {
		t.Fatal("no multihomed stub")
	}
	attackers := []bgp.ASN{topo.Order[0], topo.Order[len(topo.Order)-1]}
	scenarios, err := Expand(context.Background(), topo, Spec{Generators: []Generator{
		{Kind: KindHijacks, Attackers: attackers, Max: 12},
		{Kind: KindLocalPrefFlips, AS: stub, Values: []uint32{40, 200}},
		{Kind: KindLocalPrefFlips, AS: topo.Graph.Providers(stub)[0], Values: []uint32{40, 200}},
		{Kind: KindPrefixWithdrawals, Max: 12},
		{Kind: KindNoUpstreamFlips, Origins: []bgp.ASN{stub}},
	}})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	families := map[string]int{}
	for _, sc := range scenarios {
		families[strings.SplitN(sc.Name, ":", 2)[0]]++
	}
	if len(families) != 4 {
		t.Fatalf("scenarios of %d families, want 4: %v", len(families), families)
	}
	policies := make(map[bgp.ASN]*topogen.Policy, len(bt.Policies))
	snapPolicies := make(map[bgp.ASN]*topogen.Policy, len(bt.Policies))
	for asn, pol := range bt.Policies {
		policies[asn], snapPolicies[asn] = pol, pol.CloneDeep()
	}
	infos := make(map[bgp.ASN]*topogen.ASInfo, len(bt.ASes))
	snapInfos := make(map[bgp.ASN]*topogen.ASInfo, len(bt.ASes))
	for asn, info := range bt.ASes {
		infos[asn], snapInfos[asn] = info, info.Clone()
	}
	if _, err := Run(context.Background(), base, scenarios, Options{Workers: 4}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(bt.Policies) != len(policies) || len(bt.ASes) != len(infos) {
		t.Fatalf("%d policies and %d descriptions after the sweep, %d and %d before", len(bt.Policies), len(bt.ASes), len(policies), len(infos))
	}
	for asn, pol := range bt.Policies {
		if pol != policies[asn] {
			t.Fatalf("AS%d's Policy was replaced on the base", asn)
		}
		if !reflect.DeepEqual(pol, snapPolicies[asn]) {
			t.Fatalf("AS%d's Policy changed under the sweep: %+v, want %+v", asn, pol, snapPolicies[asn])
		}
	}
	for asn, info := range bt.ASes {
		if info != infos[asn] || !reflect.DeepEqual(info, snapInfos[asn]) {
			t.Fatalf("AS%d's description changed under the sweep: %+v, want %+v", asn, info, snapInfos[asn])
		}
	}
}
