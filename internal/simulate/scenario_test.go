package simulate

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
)

// buildTestTopo generates a small Internet and the simulation options
// the scenario tests share.
func buildTestTopo(t testing.TB, ases int, seed int64) (*topogen.Topology, Options) {
	t.Helper()
	topo, err := topogen.Generate(topogen.DefaultConfig(ases, seed))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	vantage := make([]bgp.ASN, 0, 10)
	for i, asn := range topo.Order {
		if i%17 == 0 && len(vantage) < 10 {
			vantage = append(vantage, asn)
		}
	}
	return topo, Options{VantagePoints: vantage}
}

// multihomedStub finds an AS with at least two providers and one
// originated prefix — the classic failover subject.
func multihomedStub(t testing.TB, topo *topogen.Topology) (bgp.ASN, []bgp.ASN, netx.Prefix) {
	t.Helper()
	for _, asn := range topo.Order {
		providers := topo.Graph.Providers(asn)
		info := topo.ASes[asn]
		if len(providers) >= 2 && len(info.Prefixes) > 0 {
			return asn, providers, info.Prefixes[0]
		}
	}
	t.Fatal("no multihomed stub with prefixes")
	return 0, nil, netx.Prefix{}
}

// somePeerEdge returns one peer-to-peer edge.
func somePeerEdge(t testing.TB, topo *topogen.Topology) (bgp.ASN, bgp.ASN) {
	t.Helper()
	for _, asn := range topo.Order {
		if peers := topo.Graph.Peers(asn); len(peers) > 0 {
			return asn, peers[0]
		}
	}
	t.Fatal("no peer edge")
	return 0, 0
}

// checkScenario applies sc incrementally on a fresh engine and compares
// the result bit-for-bit — vantage tables, reach counts and the best
// forest — against a from-scratch simulation of the mutated topology.
func checkScenario(t *testing.T, topo *topogen.Topology, opts Options, sc Scenario) *Delta {
	t.Helper()
	eng, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	delta, err := eng.Apply(sc)
	if err != nil {
		t.Fatalf("apply %s: %v", sc.Name, err)
	}
	mutated := topo.Clone()
	if err := sc.ApplyToTopology(mutated); err != nil {
		t.Fatalf("mutate %s: %v", sc.Name, err)
	}
	want := requireSameForest(t, sc.Name, eng, mutated, opts)
	if diffs := DiffResults(eng.Result(), want.Result()); len(diffs) > 0 {
		for _, d := range diffs {
			t.Errorf("%s: %s", sc.Name, d)
		}
		t.Fatalf("%s: incremental result differs from full resimulation (%d diffs)", sc.Name, len(diffs))
	}
	return delta
}

// TestScenarioMatchesFullResim is the property test the tentpole rests
// on: for several seeds and every event type, incremental re-convergence
// must be bit-identical to simulating the mutated topology from scratch.
func TestScenarioMatchesFullResim(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		topo, opts := buildTestTopo(t, 150, seed)
		stub, providers, stubPrefix := multihomedStub(t, topo)
		peerA, peerB := somePeerEdge(t, topo)

		scenarios := []Scenario{
			{Name: "fail-stub-uplink", Events: []Event{FailLink(stub, providers[0])}},
			{Name: "fail-peer-link", Events: []Event{FailLink(peerA, peerB)}},
			{Name: "withdraw", Events: []Event{WithdrawPrefix(stubPrefix)}},
			{Name: "announce-new", Events: []Event{
				AnnouncePrefix(netx.MustParsePrefix("203.0.113.0/24"), stub),
			}},
			{Name: "local-pref-neighbor", Events: []Event{
				SetLocalPref(stub, providers[0], 40),
			}},
			{Name: "local-pref-prefix", Events: []Event{
				SetPrefixLocalPref(providers[0], stub, stubPrefix, 240),
			}},
			{Name: "sa-withhold", Events: []Event{
				ToggleProviderAnnouncement(stubPrefix, providers[1], false),
			}},
			{Name: "no-upstream-tag", Events: []Event{
				TagNoUpstream(stubPrefix, providers[0]),
			}},
			{Name: "batch-mixed", Events: []Event{
				FailLink(stub, providers[0]),
				SetLocalPref(peerA, peerB, 60),
				ToggleProviderAnnouncement(stubPrefix, providers[1], false),
			}},
		}
		for _, sc := range scenarios {
			checkScenario(t, topo, opts, sc)
		}
	}
}

// TestScenarioFailRestoreRoundTrip checks that failing a link and then
// restoring it (in a second Apply) returns the engine exactly to the
// base converged state, and that sequential Applies compose.
func TestScenarioFailRestoreRoundTrip(t *testing.T) {
	topo, opts := buildTestTopo(t, 150, 5)
	stub, providers, _ := multihomedStub(t, topo)

	base, err := Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Graph.Rel(a, b) returns what b is to a — RestoreLink's convention.
	rel := topo.Graph.Rel(stub, providers[0])
	if _, err := eng.Apply(Scenario{Events: []Event{FailLink(stub, providers[0])}}); err != nil {
		t.Fatal(err)
	}
	delta, err := eng.Apply(Scenario{Events: []Event{RestoreLink(stub, providers[0], rel)}})
	if err != nil {
		t.Fatal(err)
	}
	if diffs := DiffResults(eng.Result(), base); len(diffs) > 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Fatalf("fail+restore did not return to base state (%d diffs)", len(diffs))
	}
	if delta.Recomputed == 0 {
		t.Fatal("restore recomputed nothing")
	}
}

// TestScenarioSequentialApplies drives three Applies on one engine and
// compares against a single from-scratch simulation with all mutations.
func TestScenarioSequentialApplies(t *testing.T) {
	topo, opts := buildTestTopo(t, 150, 7)
	stub, providers, stubPrefix := multihomedStub(t, topo)
	peerA, peerB := somePeerEdge(t, topo)

	eng, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	steps := []Scenario{
		{Events: []Event{FailLink(peerA, peerB)}},
		{Events: []Event{SetLocalPref(stub, providers[0], 45)}},
		{Events: []Event{TagNoUpstream(stubPrefix, providers[1])}},
	}
	mutated := topo.Clone()
	for _, sc := range steps {
		if _, err := eng.Apply(sc); err != nil {
			t.Fatal(err)
		}
		if err := sc.ApplyToTopology(mutated); err != nil {
			t.Fatal(err)
		}
	}
	want, err := Run(mutated, opts)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := DiffResults(eng.Result(), want); len(diffs) > 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Fatalf("sequential applies diverged (%d diffs)", len(diffs))
	}
}

// TestScenarioUntouchedPrefixesSkipped checks the incremental claim
// itself: a leaf link failure must not re-converge prefixes that never
// routed over it.
func TestScenarioUntouchedPrefixesSkipped(t *testing.T) {
	topo, opts := buildTestTopo(t, 150, 9)
	stub, providers, _ := multihomedStub(t, topo)
	eng, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	total := len(topo.PrefixOrigin)
	delta, err := eng.Apply(Scenario{Events: []Event{FailLink(stub, providers[0])}})
	if err != nil {
		t.Fatal(err)
	}
	if delta.Recomputed >= total {
		t.Fatalf("failover recomputed all %d prefixes; expected a strict subset", total)
	}
	if delta.TotalPrefixes != total {
		t.Fatalf("TotalPrefixes = %d, want %d", delta.TotalPrefixes, total)
	}
}

// TestScenarioNilPolicyOrigin regresses the pre-event policy snapshot:
// when the edited AS had no policy at all, reconstruction must see the
// old nil, not the policy the edit creates.
func TestScenarioNilPolicyOrigin(t *testing.T) {
	for _, seed := range []int64{3, 4, 5} {
		topo, opts := buildTestTopo(t, 120, seed)
		stub, providers, stubPrefix := multihomedStub(t, topo)
		base := topo.Clone()
		delete(base.Policies, stub)
		scenarios := []Scenario{
			{Name: "no-upstream-nil-pol", Events: []Event{TagNoUpstream(stubPrefix, providers[0])}},
			{Name: "sa-withhold-nil-pol", Events: []Event{ToggleProviderAnnouncement(stubPrefix, providers[1], false)}},
		}
		for _, sc := range scenarios {
			checkScenario(t, base, opts, sc)
		}
	}
}

// TestScenarioAnnounceWithdrawBatch regresses the announce-then-
// withdraw batch: the net effect is nothing, so the delta must not
// fabricate shifts and the state must equal the base run.
func TestScenarioAnnounceWithdrawBatch(t *testing.T) {
	topo, opts := buildTestTopo(t, 80, 13)
	stub, _, _ := multihomedStub(t, topo)
	p := netx.MustParsePrefix("198.51.100.0/24")
	eng, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := eng.Apply(Scenario{Events: []Event{
		AnnouncePrefix(p, stub),
		WithdrawPrefix(p),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if delta.Recomputed != 0 || len(delta.Shifts) != 0 || len(delta.ReachDeltas) != 0 {
		t.Fatalf("announce+withdraw batch fabricated a delta: %+v", delta)
	}
	if diffs := DiffResults(eng.Result(), base); len(diffs) > 0 {
		t.Fatalf("announce+withdraw batch changed state: %v", diffs)
	}
}

// TestScenarioValidation exercises the all-or-nothing validation.
func TestScenarioValidation(t *testing.T) {
	topo, opts := buildTestTopo(t, 80, 11)
	eng, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Result()
	cases := []Scenario{
		{Name: "unknown-as", Events: []Event{FailLink(64999, 65000)}},
		{Name: "no-such-link", Events: []Event{FailLink(topo.Order[0], topo.Order[0])}},
		{Name: "bad-rel", Events: []Event{{Kind: EventLinkRestore, A: topo.Order[0], B: topo.Order[1], Rel: "frenemy"}}},
		{Name: "withdraw-missing", Events: []Event{WithdrawPrefix(netx.MustParsePrefix("198.51.100.0/24"))}},
		{Name: "unknown-kind", Events: []Event{{Kind: "meteor_strike"}}},
		{Name: "unknown-neighbor", Events: []Event{SetLocalPref(topo.Order[0], 64999, 50)}},
	}
	for _, sc := range cases {
		if _, err := eng.Apply(sc); err == nil {
			t.Errorf("%s: expected error", sc.Name)
		}
	}
	if diffs := DiffResults(eng.Result(), before); len(diffs) > 0 {
		t.Fatalf("failed validation mutated state: %v", diffs)
	}
}

// TestScenarioJSONRoundTrip checks the events.json wire format.
func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := Scenario{
		Name: "maintenance",
		Events: []Event{
			FailLink(64512, 64513),
			RestoreLink(64512, 64513, asgraph.RelProvider),
			WithdrawPrefix(netx.MustParsePrefix("192.0.2.0/24")),
			AnnouncePrefix(netx.MustParsePrefix("192.0.2.0/24"), 64514),
			SetLocalPref(64512, 64515, 80),
			SetPrefixLocalPref(64512, 64515, netx.MustParsePrefix("198.51.100.0/24"), 130),
			ToggleProviderAnnouncement(netx.MustParsePrefix("192.0.2.0/24"), 64516, false),
			TagNoUpstream(netx.MustParsePrefix("192.0.2.0/24"), 64516),
		},
	}
	var buf bytes.Buffer
	if err := sc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Events without a prefix must not serialize a spurious "0.0.0.0/0".
	if s := buf.String(); strings.Contains(s, "0.0.0.0/0") {
		t.Fatalf("zero prefix leaked into JSON:\n%s", s)
	}
	got, err := LoadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != sc.Name || len(got.Events) != len(sc.Events) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range sc.Events {
		if got.Events[i] != sc.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, got.Events[i], sc.Events[i])
		}
	}
}

// randomBatch draws 1–4 events over all seven kinds, each valid against
// the topology as the batch's earlier events left it (work is mutated
// along). Restorations re-raise a link this batch failed, or open a new
// peering; local-pref edits stay inside Gao & Rexford's safe orderings
// (a customer is only promoted, a peer or provider only demoted) so the
// mutated network keeps one stable state to compare against. One batch
// in eight opens with two local-pref edits at one AS: the first may
// leave the AS unmaterialized, the second may not, and the selection it
// forces has to see both.
func randomBatch(t *testing.T, rng *rand.Rand, work *topogen.Topology, fresh *int) []Event {
	t.Helper()
	pick := func(asns []bgp.ASN) bgp.ASN { return asns[rng.Intn(len(asns))] }
	somePrefix := func() (netx.Prefix, bool) {
		ps := make([]netx.Prefix, 0, len(work.PrefixOrigin))
		for p := range work.PrefixOrigin {
			ps = append(ps, p)
		}
		if len(ps) == 0 {
			return netx.Prefix{}, false
		}
		netx.SortPrefixes(ps)
		return ps[rng.Intn(len(ps))], true
	}
	type downLink struct {
		a, b bgp.ASN
		rel  asgraph.Relationship
	}
	var down []downLink
	var withdrawn []netx.Prefix
	var batch []Event
	safePref := func(as, nb bgp.ASN) uint32 {
		if work.Graph.Rel(as, nb) == asgraph.RelCustomer {
			return uint32(200 + 10*rng.Intn(4))
		}
		return uint32(40 + 10*rng.Intn(4))
	}
	if rng.Intn(8) == 0 {
		as := pick(work.Order)
		if nbs := work.Graph.Neighbors(as); len(nbs) >= 2 {
			i := rng.Intn(len(nbs))
			for _, nb := range []bgp.ASN{nbs[i], nbs[(i+1+rng.Intn(len(nbs)-1))%len(nbs)]} {
				ev := SetLocalPref(as, nb, safePref(as, nb))
				if _, err := applyEventToTopology(work, ev); err != nil {
					t.Fatalf("generated event %+v does not apply: %v", ev, err)
				}
				batch = append(batch, ev)
			}
		}
	}
	for n := len(batch) + 1 + rng.Intn(4); len(batch) < n; {
		var ev Event
		switch allEventKinds[rng.Intn(len(allEventKinds))] {
		case EventLinkFail:
			edges := work.Graph.Edges()
			e := edges[rng.Intn(len(edges))]
			ev = FailLink(e.A, e.B)
			down = append(down, downLink{e.A, e.B, work.Graph.Rel(e.A, e.B)})
		case EventLinkRestore:
			if len(down) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(down))
				ev = RestoreLink(down[i].a, down[i].b, down[i].rel)
				down = append(down[:i], down[i+1:]...)
			} else if a, b := pick(work.Order), pick(work.Order); a != b && work.Graph.Rel(a, b) == asgraph.RelNone {
				ev = RestoreLink(a, b, asgraph.RelPeer)
			} else {
				continue
			}
		case EventWithdraw:
			p, ok := somePrefix()
			if !ok {
				continue
			}
			ev = WithdrawPrefix(p)
			withdrawn = append(withdrawn, p)
		case EventAnnounce:
			if len(withdrawn) > 0 && rng.Intn(2) == 0 {
				// A hijack: the withdrawn prefix comes back elsewhere.
				ev = AnnouncePrefix(withdrawn[len(withdrawn)-1], pick(work.Order))
				withdrawn = withdrawn[:len(withdrawn)-1]
			} else {
				*fresh++
				ev = AnnouncePrefix(netx.MustParsePrefix(fmt.Sprintf("203.0.%d.0/24", *fresh)), pick(work.Order))
			}
		case EventLocalPref:
			as := pick(work.Order)
			nbs := work.Graph.Neighbors(as)
			if len(nbs) == 0 {
				continue
			}
			nb := nbs[rng.Intn(len(nbs))]
			value := safePref(as, nb)
			if p, ok := somePrefix(); ok && rng.Intn(2) == 0 {
				ev = SetPrefixLocalPref(as, nb, p, value)
			} else {
				ev = SetLocalPref(as, nb, value)
			}
		case EventSAToggle, EventNoUpstream:
			p, ok := somePrefix()
			if !ok {
				continue
			}
			provs := work.Graph.Providers(work.PrefixOrigin[p])
			if len(provs) == 0 {
				continue
			}
			if rng.Intn(2) == 0 {
				ev = ToggleProviderAnnouncement(p, pick(provs), rng.Intn(3) == 0)
			} else {
				ev = TagNoUpstream(p, append(provs, 0)[rng.Intn(len(provs)+1)])
			}
		}
		if _, err := applyEventToTopology(work, ev); err != nil {
			t.Fatalf("generated event %+v does not apply: %v", ev, err)
		}
		batch = append(batch, ev)
	}
	return batch
}

var allEventKinds = []EventKind{EventLinkFail, EventLinkRestore, EventWithdraw, EventAnnounce,
	EventLocalPref, EventSAToggle, EventNoUpstream}

// TestRandomMixedBatchesMatchFullResim is the differential guard for the
// event-scoped disturb set: whatever mix of kinds a batch holds, visiting
// only the prefixes its events name must leave a clone bit-identical —
// tables, reach counts and forest rows — to simulating the mutated
// topology from scratch, with the base engine it was cloned from
// untouched. TestScenarioMatchesFullResim covers each
// kind alone; the union rule only shows on mixes.
func TestRandomMixedBatchesMatchFullResim(t *testing.T) {
	seen := make(map[EventKind]int)
	for _, seed := range []int64{1, 2, 3} {
		topo, opts := buildTestTopo(t, 120, seed)
		base, err := NewEngine(topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		pristine, err := NewEngine(topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		baseline := pristine.Result()
		rng := rand.New(rand.NewSource(seed))
		fresh := 0
		// check applies sc to a clone of base and holds it to a fresh
		// engine over work, the topology with sc's events applied.
		check := func(sc Scenario, work *topogen.Topology) {
			t.Helper()
			for _, ev := range sc.Events {
				seen[ev.Kind]++
			}
			clone := base.Clone()
			if _, err := clone.Apply(sc); err != nil {
				t.Fatalf("%s %+v: %v", sc.Name, sc.Events, err)
			}
			full, err := NewEngine(work, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := full.Result()
			if len(want.Unconverged) > 0 {
				t.Fatalf("%s %+v: the mutated topology does not converge; the generator left the safe orderings", sc.Name, sc.Events)
			}
			if diffs := DiffResults(clone.Result(), want); len(diffs) > 0 {
				t.Fatalf("%s %+v: incremental differs from full resimulation: %v", sc.Name, sc.Events, diffs[:min(3, len(diffs))])
			}
			if diffs := forestDiff(clone, full); len(diffs) > 0 {
				t.Fatalf("%s %+v: forest differs from full resimulation: %v", sc.Name, sc.Events, diffs[:min(3, len(diffs))])
			}
		}
		for trial := 0; trial < 48; trial++ {
			work := topo.Clone()
			check(Scenario{Name: fmt.Sprintf("seed%d/trial%d", seed, trial), Events: randomBatch(t, rng, work, &fresh)}, work)
		}
		// The two batches that cancel out on one pair, which the random
		// draw reaches only in the fail-then-restore order.
		for _, sc := range linkCancelShapes(t, topo) {
			check(sc, topo)
		}
		if diffs := DiffResults(base.Result(), baseline); len(diffs) > 0 {
			t.Fatalf("seed %d: base engine changed under its clones: %v", seed, diffs[:min(3, len(diffs))])
		}
		if diffs := forestDiff(base, pristine); len(diffs) > 0 {
			t.Fatalf("seed %d: base forest changed under its clones: %v", seed, diffs[:min(3, len(diffs))])
		}
	}
	for _, k := range allEventKinds {
		if seen[k] == 0 {
			t.Errorf("no batch drew a %s event", k)
		}
	}
}

// TestSortTiesKeepTheirPlace: Apply's shift and reach-delta sorts are
// unstable, and where they put a tie — two shifts of one prefix with one
// count, two reach deltas of one prefix with one size of change — is in
// every sweep record's order and so in the sweep digests. cmpShift and
// cmpReach under slices.SortFunc must leave each list exactly as
// sort.Slice leaves it under the equivalent less, on lists built to tie
// (few prefixes, few counts; Origin, or Before and After, tell the tied
// records apart) in shapes that take each of pdqsort's paths: short,
// long, ascending, descending and all-equal runs.
func TestSortTiesKeepTheirPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prefixes := []netx.Prefix{
		netx.MustParsePrefix("10.0.0.0/8"), netx.MustParsePrefix("10.0.0.0/16"),
		netx.MustParsePrefix("10.1.0.0/16"), netx.MustParsePrefix("192.0.2.0/24"),
	}
	shape := func(trial, n int) []int {
		keys := make([]int, n)
		for i := range keys {
			switch trial % 4 {
			case 0: // random
				keys[i] = rng.Intn(4 * len(prefixes))
			case 1: // ascending
				keys[i] = i * 4 * len(prefixes) / max(n, 1)
			case 2: // descending
				keys[i] = (n - i) * 4 * len(prefixes) / max(n, 1)
			case 3: // one key
				keys[i] = 5
			}
		}
		return keys
	}
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(16)
		if trial%2 == 1 {
			n = 16 + rng.Intn(400)
		}
		keys := shape(trial, n)

		shifts := make([]PrefixShift, n)
		reach := make([]ReachDelta, n)
		for i, k := range keys {
			p := prefixes[k%len(prefixes)]
			shifts[i] = PrefixShift{Prefix: p, Origin: bgp.ASN(i), Shifted: k / len(prefixes)}
			before, change := rng.Intn(50), k/len(prefixes)
			if rng.Intn(2) == 0 {
				change = -change
			}
			reach[i] = ReachDelta{Prefix: p, Before: before, After: before + change}
		}

		want := slices.Clone(shifts)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Shifted != want[j].Shifted {
				return want[i].Shifted > want[j].Shifted
			}
			return want[i].Prefix.Compare(want[j].Prefix) < 0
		})
		got := slices.Clone(shifts)
		slices.SortFunc(got, cmpShift)
		for i := range got {
			if got[i].Origin != want[i].Origin {
				t.Fatalf("trial %d, %d shifts: position %d holds origin %d, sort.Slice put %d there",
					trial, n, i, got[i].Origin, want[i].Origin)
			}
		}

		wantReach := slices.Clone(reach)
		sort.Slice(wantReach, func(i, j int) bool {
			di := abs(wantReach[i].After - wantReach[i].Before)
			dj := abs(wantReach[j].After - wantReach[j].Before)
			if di != dj {
				return di > dj
			}
			return wantReach[i].Prefix.Compare(wantReach[j].Prefix) < 0
		})
		gotReach := slices.Clone(reach)
		slices.SortFunc(gotReach, cmpReach)
		if !slices.Equal(gotReach, wantReach) {
			t.Fatalf("trial %d, %d reach deltas: slices.SortFunc placed ties unlike sort.Slice", trial, n)
		}
	}
}
