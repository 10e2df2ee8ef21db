package simulate

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
)

// resultSnapshot deep-copies the observable engine state so later
// mutations cannot alias it.
func resultSnapshot(en *Engine) *Result {
	res := en.Result()
	cp := &Result{
		Tables:      make(map[bgp.ASN]*bgp.RIB, len(res.Tables)),
		ReachCount:  make(map[netx.Prefix]int, len(res.ReachCount)),
		Unconverged: append([]netx.Prefix(nil), res.Unconverged...),
	}
	for asn, rib := range res.Tables {
		cp.Tables[asn] = rib.Clone()
	}
	for p, c := range res.ReachCount {
		cp.ReachCount[p] = c
	}
	return cp
}

// requireRolledBack holds en, just rolled back, to "never applied"
// against an engine that never was: no journal armed; tables, reach counts
// and forest rows equal; the prefix index equal position by position (its
// order decides the order of tied Delta.Shifts, so the same set in another
// order is not a restore); the topology's graph, prefix ownership, AS
// descriptions and policies deep-equal; and the engine's own books
// balanced (checkInvariants).
func requireRolledBack(t *testing.T, name string, en, untouched *Engine, pristine *Result) {
	t.Helper()
	if en.e.journal != nil {
		t.Fatalf("%s: a journal is still armed", name)
	}
	if diffs := DiffResults(pristine, en.Result()); len(diffs) > 0 {
		t.Fatalf("%s: state not restored: %s", name, diffs[0])
	}
	if diffs := forestDiff(en, untouched); len(diffs) > 0 {
		t.Fatalf("%s: forest not restored: %s", name, diffs[0])
	}
	if err := en.checkInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, want := en.e, untouched.e
	if !slices.Equal(got.prefixes, want.prefixes) || !maps.Equal(got.prefixIdx, want.prefixIdx) ||
		!slices.Equal(got.reachCounts, want.reachCounts) {
		t.Fatalf("%s: prefix index not restored position by position (%d prefixes, want %d)", name, len(got.prefixes), len(want.prefixes))
	}
	if !maps.Equal(en.unconv, untouched.unconv) {
		t.Fatalf("%s: unconverged set %v, want %v", name, en.unconv, untouched.unconv)
	}
	if !reflect.DeepEqual(got.nbrs, want.nbrs) || !reflect.DeepEqual(got.sess, want.sess) ||
		!reflect.DeepEqual(got.back, want.back) || !slices.Equal(got.csrOff, want.csrOff) {
		t.Fatalf("%s: adjacency not restored", name)
	}
	gt, wt := en.Topology(), untouched.Topology()
	if !slices.Equal(gt.Graph.Edges(), wt.Graph.Edges()) {
		t.Fatalf("%s: graph not restored", name)
	}
	if !maps.Equal(gt.PrefixOrigin, wt.PrefixOrigin) {
		t.Fatalf("%s: prefix ownership not restored", name)
	}
	if len(gt.Policies) != len(wt.Policies) || len(gt.ASes) != len(wt.ASes) {
		t.Fatalf("%s: %d policies and %d AS descriptions, want %d and %d", name, len(gt.Policies), len(gt.ASes), len(wt.Policies), len(wt.ASes))
	}
	for i, asn := range got.asns {
		if !reflect.DeepEqual(gt.ASes[asn], wt.ASes[asn]) {
			t.Fatalf("%s: AS%d's description not restored: %+v, want %+v", name, asn, gt.ASes[asn], wt.ASes[asn])
		}
		if pol, ok := gt.Policies[asn]; !reflect.DeepEqual(pol, wt.Policies[asn]) || got.pols[i] != pol {
			t.Fatalf("%s: AS%d's policy not restored (present %v): %+v, want %+v", name, asn, ok, pol, wt.Policies[asn])
		}
	}
}

// TestRollbackIsTotal is the differential for "rollback == never applied"
// over every event kind. One engine per seed goes through every batch —
// random ones over all seven kinds and the named shapes below, some as
// two Applies under one checkpoint — and is never cloned again. Each
// Apply must report the Delta a fresh clone of the base reports and leave
// the state that clone is left in; each Rollback must leave the engine
// requireRolledBack cannot tell from one that never applied anything. The
// next batch running on the same engine is what holds "and behaves like
// it" — its Delta is compared with a fresh clone's like every other.
func TestRollbackIsTotal(t *testing.T) {
	seen := make(map[EventKind]int)
	var undone0 [numUndoKinds]uint64
	for kind, c := range mUndoRecords {
		undone0[kind] = c.Value()
	}
	for _, seed := range []int64{1, 2, 3} {
		topo, opts := buildTestTopo(t, 120, seed)
		// One AS is configured with no Policy at all: an edit there creates
		// one, and the rollback has to take it away again.
		bare, bareProviders, barePrefix := multihomedStub(t, topo)
		delete(topo.Policies, bare)
		base, err := NewEngine(topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		pristine := resultSnapshot(base)
		untouched, work := base.Clone(), base.Clone()

		// check runs the scenarios as successive Applies under one
		// checkpoint.
		check := func(t *testing.T, name string, applies ...Scenario) {
			t.Helper()
			fresh := base.Clone()
			work.Checkpoint()
			for _, sc := range applies {
				for _, ev := range sc.Events {
					seen[ev.Kind]++
				}
				want, err := fresh.Apply(sc)
				if err != nil {
					t.Fatalf("%s %+v: %v", name, sc.Events, err)
				}
				got, err := work.Apply(sc)
				if err != nil {
					t.Fatalf("%s %+v: the engine refuses what a fresh clone applied: %v", name, sc.Events, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v: Delta differs from a fresh clone's: recomputed %d vs %d, %d vs %d shifts, %d vs %d reach deltas, peers %v vs %v",
						name, sc.Events, got.Recomputed, want.Recomputed, len(got.Shifts), len(want.Shifts),
						len(got.ReachDeltas), len(want.ReachDeltas), got.PeerBestChanged, want.PeerBestChanged)
				}
			}
			if diffs := forestDiff(work, fresh); len(diffs) > 0 {
				t.Fatalf("%s: forest differs from a fresh clone's: %v", name, diffs[:min(3, len(diffs))])
			}
			if diffs := DiffResults(work.Result(), fresh.Result()); len(diffs) > 0 {
				t.Fatalf("%s: tables differ from a fresh clone's: %v", name, diffs[:min(3, len(diffs))])
			}
			// The same state without a checkpoint armed over it.
			if err := fresh.checkInvariants(); err != nil {
				t.Fatalf("%s: after Apply: %v", name, err)
			}
			if !work.Rollback() {
				t.Fatalf("%s: rollback refused", name)
			}
			requireRolledBack(t, name, work, untouched, pristine)
		}

		rng := rand.New(rand.NewSource(seed))
		fresh := 0
		for trial := 0; trial < 40; trial++ {
			name := fmt.Sprintf("seed%d/trial%d", seed, trial)
			// Two draws: even trials apply them as one batch each under
			// separate checkpoints, odd ones as two Applies under one (the
			// second drawn against the topology the first left).
			mutated := topo.Clone()
			delete(mutated.Policies, bare)
			first := Scenario{Name: name + "/a", Events: randomBatch(t, rng, mutated, &fresh)}
			if trial%2 == 0 {
				mutated = topo.Clone()
				delete(mutated.Policies, bare)
			}
			second := Scenario{Name: name + "/b", Events: randomBatch(t, rng, mutated, &fresh)}
			if trial%2 == 0 {
				check(t, first.Name, first)
				check(t, second.Name, second)
			} else {
				check(t, name, first, second)
			}
		}

		edges := topo.Graph.Edges()
		link := Scenario{Events: []Event{FailLink(edges[5].A, edges[5].B)}}
		lastPrefix := work.e.prefixes[len(work.e.prefixes)-1]
		attacker := topo.Order[len(topo.Order)/2]
		if attacker == bare {
			attacker = topo.Order[len(topo.Order)/2+1]
		}
		newPrefix := netx.MustParsePrefix("198.51.100.0/24")
		barePolicy := Scenario{Events: []Event{TagNoUpstream(barePrefix, bareProviders[0]), SetLocalPref(bare, bareProviders[1], 50)}}
		shapes := []struct {
			name    string
			applies []Scenario
		}{
			{"hijack", []Scenario{{Events: []Event{WithdrawPrefix(barePrefix), AnnouncePrefix(barePrefix, attacker)}}}},
			{"announce_withdraw", []Scenario{{Events: []Event{AnnouncePrefix(newPrefix, attacker), WithdrawPrefix(newPrefix)}}}},
			{"withdraw_last", []Scenario{{Events: []Event{WithdrawPrefix(lastPrefix)}}}},
			{"bare_policy", []Scenario{barePolicy}},
			{"link_then_policy", []Scenario{link, barePolicy}},
			{"policy_then_prefix", []Scenario{barePolicy, {Events: []Event{WithdrawPrefix(barePrefix), AnnouncePrefix(newPrefix, bare)}}}},
			{"announce_edit_withdraw", []Scenario{
				{Events: []Event{AnnouncePrefix(newPrefix, bare)}},
				{Events: []Event{SetPrefixLocalPref(bareProviders[0], bare, newPrefix, 40), ToggleProviderAnnouncement(newPrefix, bareProviders[1], false)}},
				{Events: []Event{WithdrawPrefix(newPrefix)}},
			}},
		}
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("seed%d/%s", seed, sh.name), func(t *testing.T) { check(t, sh.name, sh.applies...) })
		}
		for _, sc := range linkCancelShapes(t, topo) {
			check(t, sc.Name, sc)
		}
		if _, ok := work.Topology().Policies[bare]; ok {
			t.Errorf("seed %d: AS%d ended up with a Policy", seed, bare)
		}
	}
	for _, k := range allEventKinds {
		if seen[k] == 0 {
			t.Errorf("no batch drew a %s event", k)
		}
	}
	for kind, c := range mUndoRecords {
		if c.Value() == undone0[kind] {
			t.Errorf("policyscope_journal_undo_records_total: no record of kind %d was replayed", kind)
		}
	}
}

// TestCheckpointRollbackRestoresState: Checkpoint → Apply(link events) →
// Rollback restores tables, reach counts, the best forest and the
// unconverged set bit for bit, and the engine remains usable (a second
// Apply matches a fresh engine's).
func TestCheckpointRollbackRestoresState(t *testing.T) {
	topo, vantage := equivalenceTopo(t, 200, 11)
	en, err := NewEngine(topo, Options{VantagePoints: vantage, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	untouched, err := NewEngine(topo, Options{VantagePoints: vantage, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	pristine := resultSnapshot(en)

	edges := topo.Graph.Edges()
	if len(edges) < 20 {
		t.Fatal("topology too small")
	}
	for trial := 0; trial < 8; trial++ {
		ev := edges[(trial*37)%len(edges)]
		sc := Scenario{Name: fmt.Sprintf("fail-%d", trial), Events: []Event{FailLink(ev.A, ev.B)}}
		en.Checkpoint()
		delta, err := en.Apply(sc)
		if err != nil {
			t.Fatalf("apply %v: %v", sc.Name, err)
		}
		_ = delta
		if !en.Rollback() {
			t.Fatalf("rollback %v failed", sc.Name)
		}
		requireRolledBack(t, sc.Name, en, untouched, pristine)
		// The restored link must be back in the graph.
		if topoRel := en.Topology().Graph.Rel(ev.A, ev.B); topoRel == asgraph.RelNone {
			t.Fatalf("trial %d: link %v-%v not restored", trial, ev.A, ev.B)
		}
	}

	// After all the checkpoint/rollback churn, a real Apply must still
	// match a fresh engine applying the same scenario.
	ev := edges[3]
	sc := Scenario{Events: []Event{FailLink(ev.A, ev.B)}}
	if _, err := en.Apply(sc); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngine(topo, Options{VantagePoints: vantage, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Apply(sc); err != nil {
		t.Fatal(err)
	}
	if diffs := DiffResults(fresh.Result(), en.Result()); len(diffs) > 0 {
		t.Fatalf("post-rollback apply differs: %s", diffs[0])
	}
	if diffs := forestDiff(fresh, en); len(diffs) > 0 {
		t.Fatalf("post-rollback apply differs: %s", diffs[0])
	}
}

// TestRollbackRecyclesForestRows: a worker clone that applies and rolls
// back one link failure after another — the sweep executor's loop —
// carves every forest row it writes from its region, and a second round
// of the same scenarios grows the region no further; every rollback is
// "never applied" row by row; and a row a Clone taken between Apply and
// Rollback still reads is not recycled under it. A warm worker's
// rollback allocates nothing at all, table entries included.
func TestRollbackRecyclesForestRows(t *testing.T) {
	topo, vantage := equivalenceTopo(t, 200, 11)
	opts := Options{VantagePoints: vantage, Parallelism: 1}
	base, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	pristine := resultSnapshot(base)
	worker := base.Clone()
	edges := topo.Graph.Edges()
	wrote, grown := 0, int64(0)
	for trial := 0; trial < 48; trial++ {
		ev := edges[(trial%24*53)%len(edges)]
		name := fmt.Sprintf("fail-%d", trial)
		worker.Checkpoint()
		if _, err := worker.Apply(Scenario{Name: name, Events: []Event{FailLink(ev.A, ev.B)}}); err != nil {
			t.Fatal(err)
		}
		journaled, inUse := len(worker.e.journal.rows), 0
		for pi, row := range worker.e.track {
			if worker.e.trackShared[pi] {
				continue
			}
			inUse++
			if !carvedRow(worker.e.region, row) {
				t.Fatalf("%s: private row %v is not carved from the region", name, worker.e.prefixes[pi])
			}
		}
		if inUse != journaled {
			t.Fatalf("%s: %d private rows after an Apply that journaled %d", name, inUse, journaled)
		}
		wrote += journaled
		if !worker.Rollback() {
			t.Fatalf("%s: rollback refused", name)
		}
		requireRolledBack(t, name, worker, base, pristine)
		if trial == 23 {
			grown = worker.RegionBytes()
		} else if got := worker.RegionBytes(); trial > 23 && got != grown {
			t.Fatalf("%s: a repeated scenario grew the region from %d to %d bytes", name, grown, got)
		}
	}
	if wrote == 0 {
		t.Fatal("no sampled link failure rewrote a forest row")
	}

	// Apply, Clone, Rollback: the clone holds the post-Apply rows.
	ev := edges[53%len(edges)]
	sc := Scenario{Name: "held", Events: []Event{FailLink(ev.A, ev.B)}}
	worker.Checkpoint()
	if _, err := worker.Apply(sc); err != nil {
		t.Fatal(err)
	}
	held := worker.Clone()
	if !worker.Rollback() {
		t.Fatal("rollback refused")
	}
	requireRolledBack(t, "rolled back under a clone", worker, base, pristine)
	// Churn the worker so any wrongly recycled buffer gets overwritten.
	for trial := 0; trial < 4; trial++ {
		e2 := edges[(trial*31+7)%len(edges)]
		worker.Checkpoint()
		if _, err := worker.Apply(Scenario{Events: []Event{FailLink(e2.A, e2.B)}}); err != nil {
			t.Fatal(err)
		}
		if !worker.Rollback() {
			t.Fatal("rollback refused")
		}
	}
	mutated := topo.Clone()
	if err := sc.ApplyToTopology(mutated); err != nil {
		t.Fatal(err)
	}
	requireSameForest(t, "clone taken before the rollback", held, mutated, opts)

	// The table entries' analogue: a warm worker's rollback allocates
	// nothing. Its second cycle of one scenario finds the graph, the
	// policy map and the table layers un-shared, so each entry's
	// pre-image is the parent layer's entry, and putting it back deletes
	// the Apply's copy.
	vp := vantage[0]
	nbr := topo.Graph.Neighbors(vp)[0]
	for _, sc := range []Scenario{
		{Name: "link", Events: []Event{FailLink(ev.A, ev.B)}},
		{Name: "local_pref", Events: []Event{SetLocalPref(vp, nbr, 1000)}},
	} {
		warm := base.Clone()
		for cycle := 0; cycle < 2; cycle++ {
			warm.Checkpoint()
			if _, err := warm.Apply(sc); err != nil {
				t.Fatal(err)
			}
			entries := len(warm.e.journal.entries)
			if entries == 0 {
				t.Fatalf("%s: the scenario wrote no vantage entry", sc.Name)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ok := warm.Rollback()
			runtime.ReadMemStats(&after)
			if !ok {
				t.Fatalf("%s: rollback refused", sc.Name)
			}
			requireRolledBack(t, sc.Name, warm, base, pristine)
			if n := after.Mallocs - before.Mallocs; cycle == 1 && n != 0 && !raceEnabled {
				t.Errorf("%s: a warm rollback of %d entries allocated %d objects, want 0", sc.Name, entries, n)
			}
		}
	}

	// And what the Apply wrote into the tables is recycled: a warm
	// worker's third cycle of one scenario carves its routes, their paths,
	// its entries and their lists from the region its rollbacks rewound.
	// Heap copies cost at least three objects an entry; the whole cycle —
	// with the Delta, the journal's and the recon's own bookkeeping — must
	// stay below one. Every AS is a vantage point here, so the entries a
	// scenario writes outnumber that bookkeeping.
	everywhere, err := NewEngine(topo, Options{VantagePoints: topo.Order, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	victim := base.e.prefixes[0]
	if topo.PrefixOrigin[victim] == nbr {
		victim = base.e.prefixes[1]
	}
	for _, sc := range []Scenario{
		{Name: "hijack", Events: []Event{WithdrawPrefix(victim), AnnouncePrefix(victim, nbr)}},
		{Name: "local_pref", Events: []Event{SetLocalPref(vp, nbr, 1000)}},
	} {
		warm := everywhere.Clone()
		for cycle := 0; cycle < 3; cycle++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			warm.Checkpoint()
			if _, err := warm.Apply(sc); err != nil {
				t.Fatal(err)
			}
			entries := len(warm.e.journal.entries)
			ok := warm.Rollback()
			runtime.ReadMemStats(&after)
			if !ok {
				t.Fatalf("%s: rollback refused", sc.Name)
			}
			n := after.Mallocs - before.Mallocs
			t.Logf("%s cycle %d: %d entries, %d objects", sc.Name, cycle, entries, n)
			if cycle == 2 && n >= uint64(entries) && !raceEnabled {
				t.Errorf("%s: a warm cycle that wrote %d entries allocated %d objects, want fewer", sc.Name, entries, n)
			}
		}
		if diffs := DiffResults(everywhere.Result(), warm.Result()); len(diffs) > 0 {
			t.Fatalf("%s: three cycles left the worker off its base: %s", sc.Name, diffs[0])
		}
	}

	// A link failure's relink is recycled too: its neighbor, session and
	// reverse-index rows and its CSR offsets, and the copy of every
	// read-through entry a non-best withdrawal writes, are carved from the
	// region. Heap rows cost at least one object per AS the relink rebuilt
	// (two per endpoint, the offsets and three per entry withdrawn on
	// top); a warm cycle, with the Delta built in a kept buffer as a
	// lease's is, must cost fewer objects than those ASes number.
	sc, prefix := vantageLinkFailure(t, base, nil)
	v, u := sc.Events[0].A, sc.Events[0].B
	best := base.Result().Tables[v].Best(prefix)
	warm, kept := base.Clone(), new(deltaBuf)
	for cycle := 0; cycle < 3; cycle++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		warm.Checkpoint()
		if err := warm.apply(sc, kept); err != nil {
			t.Fatal(err)
		}
		rebuilt := len(warm.e.stale)
		rib := warm.e.tables[warm.e.idx[v]].rib
		withdrawn := rib.CandidateFrom(prefix, u) == nil && rib.Best(prefix) == best
		ok := warm.Rollback()
		runtime.ReadMemStats(&after)
		if !ok {
			t.Fatalf("%s: rollback refused", sc.Name)
		}
		if !withdrawn {
			t.Fatalf("%s: AS%d did not withdraw its non-best candidate for %v in place", sc.Name, v, prefix)
		}
		n := after.Mallocs - before.Mallocs
		t.Logf("%s cycle %d: relink rebuilt %d ASes, %d objects", sc.Name, cycle, rebuilt, n)
		if cycle == 2 && n >= uint64(rebuilt) && !raceEnabled {
			t.Errorf("%s: a warm cycle whose relink rebuilt %d ASes allocated %d objects, want fewer", sc.Name, rebuilt, n)
		}
	}
	requireRolledBack(t, sc.Name, warm, base, pristine)
}

// linkCancelShapes returns the two batches whose link events cancel out
// on one pair: an existing link failed and restored with its
// own relationship, and a new peering opened and failed again.
func linkCancelShapes(t *testing.T, topo *topogen.Topology) []Scenario {
	t.Helper()
	e := topo.Graph.Edges()[7]
	x, y := topo.Order[0], topo.Order[len(topo.Order)/2]
	for _, x = range topo.Order {
		if x != y && topo.Graph.Rel(x, y) == asgraph.RelNone {
			break
		}
	}
	if x == y || topo.Graph.Rel(x, y) != asgraph.RelNone {
		t.Fatal("no unlinked pair")
	}
	return []Scenario{
		{Name: "fail,restore", Events: []Event{FailLink(e.A, e.B), RestoreLink(e.A, e.B, e.Rel)}},
		{Name: "restore,fail", Events: []Event{RestoreLink(x, y, asgraph.RelPeer), FailLink(x, y)}},
	}
}

// TestRollbackUndoesLinkEventsInReverse: a batch may fail and restore
// the same pair, in either order; Rollback has to undo the graph
// mutations last-first, or the pair ends up in the state its first event
// left rather than the one the checkpoint saw.
func TestRollbackUndoesLinkEventsInReverse(t *testing.T) {
	topo, vantage := equivalenceTopo(t, 200, 11)
	opts := Options{VantagePoints: vantage, Parallelism: 1}
	untouched, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range linkCancelShapes(t, topo) {
		t.Run(sc.Name, func(t *testing.T) {
			en := untouched.Clone()
			pristine := resultSnapshot(en)
			en.Checkpoint()
			if _, err := en.Apply(sc); err != nil {
				t.Fatal(err)
			}
			if !en.Rollback() {
				t.Fatal("rollback refused")
			}
			if got, want := en.Topology().Graph.Edges(), topo.Graph.Edges(); !slices.Equal(got, want) {
				t.Fatalf("graph not restored: %d edges, want %d", len(got), len(want))
			}
			requireRolledBack(t, sc.Name, en, untouched, pristine)
		})
	}
}

// TestRollbackWithoutApply: the two ways Rollback has nothing to undo.
// With no checkpoint armed it reports false — the only false there is —
// and an armed checkpoint no Apply consumed (the batch failed validation)
// is a clean no-op: the engine never left the checkpointed state.
func TestRollbackWithoutApply(t *testing.T) {
	topo, vantage := equivalenceTopo(t, 120, 3)
	en, err := NewEngine(topo, Options{VantagePoints: vantage, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	pristine := resultSnapshot(en)
	untouched := en.Clone()
	if en.Rollback() {
		t.Fatal("rollback claimed success with no checkpoint armed")
	}
	en.Checkpoint()
	if _, err := en.Apply(Scenario{Events: []Event{FailLink(1, 2)}}); err == nil {
		t.Fatal("expected validation error")
	}
	if !en.Rollback() {
		t.Fatal("rollback after validation failure should be a clean no-op")
	}
	if en.Rollback() {
		t.Fatal("a second rollback found a checkpoint the first one spent")
	}
	requireRolledBack(t, "unused checkpoint", en, untouched, pristine)
}

// TestFailedApplyDisarmsBestChanges: a batch that fails past validation
// leaves no pre-batch best record armed. The failure is staged: an
// announce at an AS whose description is gone, which validate does not
// look at, after a withdraw that has written vantage entries. Records
// left behind would hide the next Apply's first writes from the journal,
// and its Rollback would not restore them.
func TestFailedApplyDisarmsBestChanges(t *testing.T) {
	topo, vantage := equivalenceTopo(t, 120, 3)
	base, err := NewEngine(topo, Options{VantagePoints: vantage, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	pristine := resultSnapshot(base)
	en, untouched := base.Clone(), base.Clone()
	var withdrawn netx.Prefix
	for _, p := range en.e.prefixes {
		for _, slot := range en.e.tables {
			if slot.rib.Has(p) {
				withdrawn = p
			}
		}
	}
	if withdrawn == (netx.Prefix{}) {
		t.Fatal("no vantage table holds a prefix")
	}
	victim := en.e.asns[0]
	en.ownPrefixMaps()
	info := en.topo.ASes[victim]
	delete(en.topo.ASes, victim)

	en.Checkpoint()
	failing := Scenario{Events: []Event{WithdrawPrefix(withdrawn), AnnouncePrefix(netx.MustParsePrefix("203.0.113.0/24"), victim)}}
	if _, err := en.Apply(failing); err == nil {
		t.Fatal("announce at an AS without a description succeeded")
	}
	if en.e.applying {
		t.Error("Apply returned an error with its best-change records armed")
	}
	for vi, slot := range en.e.tables {
		if len(slot.preBest) > 0 {
			t.Errorf("AS%d: %d pre-batch best records left behind", en.e.asns[vi], len(slot.preBest))
		}
	}
	if !en.Rollback() {
		t.Fatal("rollback refused")
	}
	en.topo.ASes[victim] = info
	requireRolledBack(t, "failed batch", en, untouched, pristine)

	en.Checkpoint()
	if _, err := en.Apply(Scenario{Events: []Event{WithdrawPrefix(withdrawn)}}); err != nil {
		t.Fatal(err)
	}
	if !en.Rollback() {
		t.Fatal("rollback refused")
	}
	requireRolledBack(t, "the batch after it", en, untouched, pristine)
}

// TestRegionCarvesRewindsAndTrims: a region grows past its first chunk
// as takes need it, a rewind returns it to a mark with what it handed
// out since cleared and carves the same storage again, and a rewind
// keeps at most regionCap.
func TestRegionCarvesRewindsAndTrims(t *testing.T) {
	r := new(region)
	perChunk := int(chunkBytes / sizeOf[*bgp.Route]())
	first := r.lists.take(r, perChunk-1)
	route := new(bgp.Route)
	first[0] = route
	if len(first) != perChunk-1 || cap(first) != perChunk-1 {
		t.Fatalf("take(%d) = len %d cap %d", perChunk-1, len(first), cap(first))
	}
	second := r.lists.take(r, 2) // one is left in the first chunk
	second[1] = route
	if len(r.lists.all) != 2 || r.lists.at != 1 || r.held.Load() != 2*chunkBytes {
		t.Fatalf("after outgrowing one chunk: %d chunks, at %d, %d bytes held", len(r.lists.all), r.lists.at, r.held.Load())
	}
	r.lists.rewind(0, 0, r)
	if first[0] != nil || second[1] != nil {
		t.Fatal("a rewind left a carved pointer in place")
	}
	if again := r.lists.take(r, 1); &again[0] != &first[0] {
		t.Fatal("a rewound region does not carve from the mark")
	}
	if r.held.Load() != 2*chunkBytes {
		t.Fatalf("a rewind under the cap dropped chunks: %d bytes held", r.held.Load())
	}

	// Past the cap: a rewind keeps the chunks up to its mark and drops
	// the rest, last first, down to regionCap.
	r = new(region)
	r.asns.take(r, 1)
	var at regionMark
	for i, c := range r.parts() {
		at[i].at, at[i].used = c.mark()
	}
	for r.held.Load() <= 2*regionCap {
		r.ints.take(r, 1000)
	}
	for i, c := range r.parts() {
		c.rewind(at[i].at, at[i].used, r)
	}
	if held := r.held.Load(); held > regionCap || held < regionCap-chunkBytes {
		t.Fatalf("trimmed to %d bytes, want %d at most and within a chunk of it", held, regionCap)
	}
	if r.asns.cur.Load() == nil || r.ints.at != 0 {
		t.Fatal("trimming dropped a chunk at or before the mark")
	}
}

// TestRegionConcurrentCarves: workers carving one region at once, across
// chunk boundaries, get disjoint slices (run it under -race).
func TestRegionConcurrentCarves(t *testing.T) {
	r := new(region)
	const workers, takes = 4, 2000
	got := make([][][]int32, workers)
	done := make(chan struct{})
	for w := range workers {
		go func() {
			defer func() { done <- struct{}{} }()
			for k := range takes {
				b := r.ints.take(r, 1+k%37)
				for i := range b {
					b[i] = int32(w)
				}
				got[w] = append(got[w], b)
			}
		}()
	}
	for range workers {
		<-done
	}
	for w, bufs := range got {
		for _, b := range bufs {
			for _, v := range b {
				if v != int32(w) {
					t.Fatalf("worker %d's slice was written by worker %d", w, v)
				}
			}
		}
	}
	if len(r.ints.all) < 2 {
		t.Fatalf("%d chunks: the takes never crossed a chunk boundary", len(r.ints.all))
	}
}

// TestRegionLeftToClone: a Clone taken between an Apply and its Rollback
// reads what the Apply carved, so the Rollback leaves the region to it
// and the engine's next Checkpoint starts a new, empty one.
func TestRegionLeftToClone(t *testing.T) {
	topo, opts := buildTestTopo(t, 120, 3)
	base, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	en := base.Clone()
	edge := topo.Graph.Edges()[5]
	sc := Scenario{Events: []Event{FailLink(edge.A, edge.B)}}
	en.Checkpoint()
	if _, err := en.Apply(sc); err != nil {
		t.Fatal(err)
	}
	carved := en.e.region
	held := en.Clone()
	if !en.Rollback() {
		t.Fatal("rollback refused")
	}
	if en.e.region != nil || en.RegionBytes() != 0 {
		t.Fatal("the rollback kept a region a clone reads")
	}
	en.Checkpoint()
	if en.e.region == carved || en.RegionBytes() != 0 {
		t.Fatal("the next checkpoint did not start an empty region")
	}
	if _, err := en.Apply(sc); err != nil {
		t.Fatal(err)
	}
	en.Rollback()
	mutated := topo.Clone()
	if err := sc.ApplyToTopology(mutated); err != nil {
		t.Fatal(err)
	}
	requireSameForest(t, "clone taken before the rollback", held, mutated, opts)
}

// TestHijackRowRecycled: a hijack announces its prefix anew, and capture
// gives that prefix a forest row. On a warm scratch engine the row is
// carved from the region like every other, so hijack after hijack holds
// the region where the first left it and allocates no row.
func TestHijackRowRecycled(t *testing.T) {
	topo, opts := buildTestTopo(t, 120, 2)
	base, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	victim := samplePrefixes(base, 1)[0]
	attacker := byDegree(topo)[0]
	if topo.PrefixOrigin[victim] == attacker {
		attacker = byDegree(topo)[1]
	}
	hijack := Scenario{Events: []Event{WithdrawPrefix(victim), AnnouncePrefix(victim, attacker)}}
	en := base.Clone()
	held := int64(0)
	for cycle := 0; cycle < 16; cycle++ {
		en.Checkpoint()
		if _, err := en.Apply(hijack); err != nil {
			t.Fatal(err)
		}
		if row := en.e.track[en.e.prefixIdx[victim]]; !carvedRow(en.e.region, row) {
			t.Fatalf("cycle %d: the announced prefix's row is not carved from the region", cycle)
		}
		if !en.Rollback() {
			t.Fatal("rollback refused")
		}
		if cycle == 0 {
			held = en.RegionBytes()
		} else if got := en.RegionBytes(); got != held {
			t.Fatalf("cycle %d: the region holds %d bytes, %d after the first hijack", cycle, got, held)
		}
	}
	if err := en.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLargestFlipAllocatesNoEntry: the local_pref flip that writes the
// most vantage entries — of every session of the highest-degree AS, at 50
// and at 200, on an engine whose every AS is a vantage point — writes
// five times the 4,096 entries a fixed-size arena once held. Run again on
// a warm lease, it installs no route onto the heap and allocates fewer
// objects than the entries it writes, where each heap entry costs at
// least one.
func TestLargestFlipAllocatesNoEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	topo, _ := equivalenceTopo(t, 200, 11)
	base, err := NewEngine(topo, Options{VantagePoints: topo.Order, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var largest Scenario
	most := 0
	as := byDegree(topo)[0]
	for _, nb := range topo.Graph.Neighbors(as) {
		for _, value := range []uint32{50, 200} {
			sc := Scenario{Events: []Event{SetLocalPref(as, nb, value)}}
			if _, err := base.Scratch(1, sc, func(_ *Delta, s *Engine) error {
				if n := len(s.e.journal.entries); n > most {
					most, largest = n, sc
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var carved int64
	observe := func(_ *Delta, s *Engine) error {
		carved = s.RegionBytes()
		return nil
	}
	for run := 0; run < 2; run++ {
		var before, after runtime.MemStats
		persisted := mCapturePersisted.Value()
		runtime.ReadMemStats(&before)
		if restored, err := base.Scratch(1, largest, observe); err != nil || !restored {
			t.Fatalf("restored=%v err=%v", restored, err)
		}
		runtime.ReadMemStats(&after)
		n := after.Mallocs - before.Mallocs
		t.Logf("run %d: %d entries, %d objects, region %d bytes", run, most, n, carved)
		if run == 1 {
			if got := mCapturePersisted.Value() - persisted; got != 0 {
				t.Errorf("the second run installed %d routes onto the heap", got)
			}
			if n >= uint64(most) {
				t.Errorf("the second run wrote %d entries and allocated %d objects, want fewer", most, n)
			}
		}
	}
	if most < 5*4096 {
		t.Errorf("the largest flip writes only %d entries", most)
	}
}

// carvedRow reports whether row lies in storage r has carved.
func carvedRow(r *region, row []int32) bool {
	p := uintptr(unsafe.Pointer(&row[0]))
	c := &r.ints
	for i, k := range c.all[:min(c.at+1, int64(len(c.all)))] {
		used := int64(len(k.buf))
		if int64(i) == c.at {
			used = min(k.used.Load(), used)
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(k.buf)))
		if p >= lo && p < lo+uintptr(used)*unsafe.Sizeof(row[0]) {
			return true
		}
	}
	return false
}
