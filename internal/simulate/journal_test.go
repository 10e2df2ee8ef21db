package simulate

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

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
// balanced (checkInvariants: no buffer on the free list is still a live
// row, among the rest).
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
// obtains from the allocator no more forest-row buffers than its largest
// single scenario wrote, however many scenarios it runs; every rollback
// is "never applied" row by row; and a buffer a Clone taken between Apply
// and Rollback still reads is not recycled under it. A warm worker's
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
	largest := 0
	for trial := 0; trial < 24; trial++ {
		ev := edges[(trial*53)%len(edges)]
		name := fmt.Sprintf("fail-%d", trial)
		worker.Checkpoint()
		if _, err := worker.Apply(Scenario{Name: name, Events: []Event{FailLink(ev.A, ev.B)}}); err != nil {
			t.Fatal(err)
		}
		wrote := len(worker.e.journal.rows)
		largest = max(largest, wrote)
		inUse := 0
		for pi := range worker.e.track {
			if !worker.e.trackShared[pi] {
				inUse++
			}
		}
		if inUse != wrote {
			t.Fatalf("%s: %d private rows after an Apply that journaled %d", name, inUse, wrote)
		}
		if !worker.Rollback() {
			t.Fatalf("%s: rollback refused", name)
		}
		requireRolledBack(t, name, worker, base, pristine)
		// Every buffer the worker ever allocated is back on the free
		// list now, so its length is the allocation count.
		if got := len(worker.e.rowFree); got > largest {
			t.Fatalf("%s: %d row buffers allocated so far, the largest scenario wrote %d", name, got, largest)
		}
	}
	if largest == 0 {
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
	// its entries and their lists from the arena its rollbacks rewound.
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
	// arena. Heap rows cost at least one object per AS the relink rebuilt
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

// TestSlabCarvesUntilFull: a vantage-arena slab hands out slices that end
// at their capacity, fails every take once one did not fit, and rewinds
// to any mark a checkpoint took — one past its end too, which a
// checkpoint re-armed after an Apply that outgrew the arena takes.
func TestSlabCarvesUntilFull(t *testing.T) {
	s := slab[bgp.ASN]{buf: make([]bgp.ASN, 4)}
	a := s.take(3)
	if len(a) != 3 || cap(a) != 3 {
		t.Fatalf("take(3) = len %d cap %d, want 3 and 3", len(a), cap(a))
	}
	a[0], a[1], a[2] = 1, 2, 3
	if b := s.take(2); b != nil {
		t.Fatalf("take(2) with one left = %v, want nil", b)
	}
	if b := s.one(); b != nil {
		t.Fatal("a take after a failed one succeeded")
	}
	past := s.used.Load()
	s.rewind(past) // a mark past the end: nothing to clear
	s.rewind(1)
	if a[0] != 1 || a[1] != 0 || a[2] != 0 {
		t.Fatalf("rewind(1) left %v, want [1 0 0]", a)
	}
	if b := s.take(3); len(b) != 3 || &b[0] != &a[1] {
		t.Fatal("a rewound slab does not carve from the mark")
	}
}
