package simulate

import (
	"sync"
	"testing"

	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
)

// TestCloneIsolation proves the copy-on-write contract: applying a
// scenario on a clone matches a from-scratch simulation of the mutated
// topology, while the base engine (and sibling clones) keep the
// pristine state bit for bit.
func TestCloneIsolation(t *testing.T) {
	topo, opts := buildTestTopo(t, 160, 5)
	base, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}

	stub, providers, prefix := multihomedStub(t, topo)
	fail := Scenario{Name: "fail", Events: []Event{FailLink(stub, providers[0])}}
	withdraw := Scenario{Name: "withdraw", Events: []Event{WithdrawPrefix(prefix)}}

	c1 := base.Clone()
	c2 := base.Clone()
	if _, err := c1.Apply(fail); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Apply(withdraw); err != nil {
		t.Fatal(err)
	}

	// Each clone matches full resimulation of its own mutation.
	for _, tc := range []struct {
		eng *Engine
		sc  Scenario
	}{{c1, fail}, {c2, withdraw}} {
		mutated := topo.Clone()
		if err := tc.sc.ApplyToTopology(mutated); err != nil {
			t.Fatal(err)
		}
		want, err := Run(mutated, opts)
		if err != nil {
			t.Fatal(err)
		}
		if diffs := DiffResults(tc.eng.Result(), want); len(diffs) > 0 {
			t.Fatalf("clone %s diverged from full resim: %v", tc.sc.Name, diffs[:min(3, len(diffs))])
		}
	}

	// The base engine never saw any of it.
	if diffs := DiffResults(base.Result(), baseline); len(diffs) > 0 {
		t.Fatalf("base engine corrupted by clone applies: %v", diffs[:min(3, len(diffs))])
	}
}

// TestCloneConcurrentApplies drives many clones of one base engine in
// parallel — the Session's what-if serving pattern. Run with -race.
func TestCloneConcurrentApplies(t *testing.T) {
	topo, opts := buildTestTopo(t, 120, 9)
	base, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	stub, providers, prefix := multihomedStub(t, topo)
	scenarios := []Scenario{
		{Name: "fail0", Events: []Event{FailLink(stub, providers[0])}},
		{Name: "fail1", Events: []Event{FailLink(stub, providers[1])}},
		{Name: "withdraw", Events: []Event{WithdrawPrefix(prefix)}},
		{Name: "pref", Events: []Event{SetLocalPref(providers[0], stub, 40)}},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(scenarios))
	for round := 0; round < 2; round++ {
		for _, sc := range scenarios {
			wg.Add(1)
			go func(sc Scenario) {
				defer wg.Done()
				eng := base.Clone()
				if _, err := eng.Apply(sc); err != nil {
					errs <- err
					return
				}
				if res := eng.Result(); len(res.Tables) == 0 {
					errs <- errEmptyResult
				}
			}(sc)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if diffs := DiffResults(base.Result(), base.Result()); len(diffs) > 0 {
		t.Fatalf("self-diff: %v", diffs)
	}
}

var errEmptyResult = &cloneTestError{"empty clone result"}

type cloneTestError struct{ msg string }

func (e *cloneTestError) Error() string { return e.msg }

// fullResim simulates topo from scratch after applying every scenario.
func fullResim(t *testing.T, topo *topogen.Topology, opts Options, scs ...Scenario) *Result {
	t.Helper()
	mutated := topo.Clone()
	for _, sc := range scs {
		if err := sc.ApplyToTopology(mutated); err != nil {
			t.Fatalf("mutate %s: %v", sc.Name, err)
		}
	}
	want, err := Run(mutated, opts)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestCloneUnshareAccounting pins what one Apply on a fresh clone
// un-shares from the base, for one scenario of each policy family and a
// single link failure: exactly the forest rows of the prefixes whose
// re-convergence touched an AS, no more vantage tables than it wrote
// entries in, and the base bit for bit as it was. It then clones the
// written clone and writes both sides: each must match a full
// resimulation of its own history only.
func TestCloneUnshareAccounting(t *testing.T) {
	topo, opts := buildTestTopo(t, 160, 5)
	base, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	stub, providers, prefix := multihomedStub(t, topo)
	peerA, peerB := somePeerEdge(t, topo)
	attacker := topo.Order[len(topo.Order)/2]
	if attacker == stub {
		attacker = topo.Order[len(topo.Order)/2+1]
	}
	// A no-upstream tag that moves routes (one scoped to an AS with no
	// upstream of its own changes nothing and would pin nothing).
	var tag Scenario
	for _, asn := range topo.Order {
		provs := topo.Graph.Providers(asn)
		if len(provs) == 0 || len(topo.ASes[asn].Prefixes) == 0 {
			continue
		}
		sc := Scenario{Name: "no_upstream", Events: []Event{TagNoUpstream(topo.ASes[asn].Prefixes[0], provs[0])}}
		if d, err := base.Clone().Apply(sc); err == nil && d.Recomputed > 0 {
			tag = sc
			break
		}
	}
	if tag.Name == "" {
		t.Fatal("no no_upstream tag disturbs any prefix")
	}
	second := Scenario{Name: "second", Events: []Event{SetLocalPref(peerA, peerB, 60)}}
	third := Scenario{Name: "third", Events: []Event{FailLink(peerA, peerB)}}

	// wantRows says how many forest rows the clone may own afterwards,
	// given the Apply's delta and how many rows its journal pre-imaged.
	cases := []struct {
		sc       Scenario
		wantRows func(d *Delta, journaled int) int
	}{
		// A withdrawal drops its prefix's row; nothing else is visited.
		{Scenario{Name: "withdraw", Events: []Event{WithdrawPrefix(prefix)}},
			func(*Delta, int) int { return 0 }},
		// A hijack's one private row is the re-originated prefix's.
		{Scenario{Name: "hijack", Events: []Event{WithdrawPrefix(prefix), AnnouncePrefix(prefix, attacker)}},
			func(*Delta, int) int { return 1 }},
		// Policy events: Recomputed counts exactly the prefixes whose
		// re-convergence touched an AS.
		{tag, func(d *Delta, _ int) int { return d.Recomputed }},
		{Scenario{Name: "local_pref", Events: []Event{SetLocalPref(providers[0], stub, 40)}},
			func(d *Delta, _ int) int { return d.Recomputed }},
		// A link failure's Recomputed also counts candidate-only table
		// maintenance; its journal pre-images one row per touched prefix.
		{Scenario{Name: "link_fail", Events: []Event{FailLink(stub, providers[0])}},
			func(_ *Delta, journaled int) int { return journaled }},
	}
	for _, tc := range cases {
		c := base.Clone()
		c.Checkpoint()
		rows0, tables0, written0 := mCowForestRow.Value(), mCowTable.Value(), mApplyEntriesRewritten.Sum()
		delta, err := c.Apply(tc.sc)
		if err != nil {
			t.Fatalf("%s: %v", tc.sc.Name, err)
		}
		copiedRows := int(mCowForestRow.Value() - rows0)
		copiedTables := int(mCowTable.Value() - tables0)
		written := int(mApplyEntriesRewritten.Sum() - written0)
		journaled := len(c.e.journal.rows)
		c.e.journal = nil // keep the post-Apply state

		announced := make(map[netx.Prefix]bool)
		for _, ev := range tc.sc.Events {
			if ev.Kind == EventAnnounce {
				announced[ev.Prefix] = true
			}
		}
		owned, fresh := 0, 0
		for pi, p := range c.e.prefixes {
			if c.e.trackShared[pi] {
				if bi, ok := base.e.prefixIdx[p]; !ok || &c.e.track[pi][0] != &base.e.track[bi][0] {
					t.Errorf("%s: %v is marked shared but is not the base's row", tc.sc.Name, p)
				}
				continue
			}
			owned++
			if announced[p] {
				fresh++ // converged from scratch: allocated, not copied
			}
		}
		if want := tc.wantRows(delta, journaled); owned != want {
			t.Errorf("%s: clone owns %d forest rows, want %d (recomputed %d of %d)",
				tc.sc.Name, owned, want, delta.Recomputed, delta.TotalPrefixes)
		}
		if tc.sc.Name == "no_upstream" && owned > 1 {
			t.Errorf("no_upstream un-shared %d rows, want at most its one prefix's", owned)
		}
		if copiedRows != owned-fresh {
			t.Errorf("%s: cow_copies{forest_row} moved by %d, clone owns %d copied rows", tc.sc.Name, copiedRows, owned-fresh)
		}
		ownedTables := 0
		for _, slot := range c.e.tables {
			if !slot.shared {
				ownedTables++
			}
		}
		if copiedTables != ownedTables || copiedTables > written {
			t.Errorf("%s: cow_copies{table} moved by %d, clone owns %d tables, Apply wrote %d entries",
				tc.sc.Name, copiedTables, ownedTables, written)
		}
		if diffs := DiffResults(c.Result(), fullResim(t, topo, opts, tc.sc)); len(diffs) > 0 {
			t.Fatalf("%s: clone diverged from full resim: %v", tc.sc.Name, diffs[:min(3, len(diffs))])
		}
		if diffs := DiffResults(base.Result(), baseline); len(diffs) > 0 {
			t.Fatalf("%s: base engine corrupted by the clone's Apply: %v", tc.sc.Name, diffs[:min(3, len(diffs))])
		}

		// A clone of the written clone: both sides now share c's private
		// rows, tables and topology copies, and both write.
		c2 := c.Clone()
		if _, err := c2.Apply(second); err != nil {
			t.Fatalf("%s+second: %v", tc.sc.Name, err)
		}
		if _, err := c.Apply(third); err != nil {
			t.Fatalf("%s+third: %v", tc.sc.Name, err)
		}
		if diffs := DiffResults(c2.Result(), fullResim(t, topo, opts, tc.sc, second)); len(diffs) > 0 {
			t.Fatalf("%s: second-level clone diverged: %v", tc.sc.Name, diffs[:min(3, len(diffs))])
		}
		if diffs := DiffResults(c.Result(), fullResim(t, topo, opts, tc.sc, third)); len(diffs) > 0 {
			t.Fatalf("%s: written clone diverged after being cloned: %v", tc.sc.Name, diffs[:min(3, len(diffs))])
		}
		if diffs := DiffResults(base.Result(), baseline); len(diffs) > 0 {
			t.Fatalf("%s: base engine corrupted two levels down: %v", tc.sc.Name, diffs[:min(3, len(diffs))])
		}
	}
}
