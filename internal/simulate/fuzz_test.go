package simulate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
)

// FuzzLoadScenario feeds LoadScenario the bytes POST /whatif hands it
// straight off a request body. It must never panic, and whatever it
// accepts must survive a marshal / re-load round trip unchanged — the
// same scenario is what a sweep coordinator re-serializes to workers.
// The committed corpus under testdata/fuzz/FuzzLoadScenario holds one
// input per event kind plus malformed shapes.
func FuzzLoadScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := LoadScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		out, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		again, err := LoadScenario(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-marshalled scenario rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("round trip changed the scenario:\n first %+v\nsecond %+v\n  wire %s", sc, again, out)
		}
	})
}

// FuzzApplyRollback feeds whatever LoadScenario accepts to one long-lived
// 60-AS engine: a scenario that validates is applied under a checkpoint
// and rolled back, and the engine must then be indistinguishable from a
// clone nothing was ever applied to (requireRolledBack: forest, tables,
// prefix index position by position, topology, and its own invariants).
// The engine is never replaced, so each input runs on what every earlier
// rollback left behind. The second pass clones the engine between Apply
// and Rollback, so each event kind's rollback also restores over table
// layers the clone flattened, and the clone must still hold what a fresh
// clone's Apply makes — also after the engine applied and rolled back a
// hijack of another prefix, which carves its routes and entries from
// whatever storage the first rollback left it, and a link failure at a
// vantage point, which carves relinked adjacency rows and the entries its
// withdrawals copy. After that churn the clone must still balance its
// books (checkInvariants, the adjacency included) and answer one more
// link failure as the fresh clone does. The seeds are one scenario per
// event kind, a hijack, a batch that writes every kind of Policy entry of
// one AS, some twice, and withdrawals that delete a generated Export
// entry, drawn from the topology so that they validate.
func FuzzApplyRollback(f *testing.F) {
	topo, opts := buildTestTopo(f, 60, 7)
	// A fuzzed local_pref may build a preference cycle; keep the budget
	// such a prefix burns small.
	opts.ActivationBudget = 20
	opts.Parallelism = 1
	stub, providers, prefix := multihomedStub(f, topo)
	// The stub's Policy has an Override from the start, so an edit of one
	// of its entries has a value to put back: an Override the Apply makes
	// goes with the rollback, whatever its entries held.
	ov := topo.Policies[stub].EnsureOverride()
	ov.SetNeighbor(providers[0], 70)
	ov.SetPrefix(providers[1], prefix, 80)
	base, err := NewEngine(topo, opts)
	if err != nil {
		f.Fatal(err)
	}
	pristine := resultSnapshot(base)
	untouched, work := base.Clone(), base.Clone()

	// Prefixes whose origin's generated Policy has an entry for them,
	// which a withdrawal deletes.
	var selective, tagged []Event
	for _, p := range base.e.prefixes {
		pol := topo.Policies[topo.PrefixOrigin[p]]
		if _, ok := pol.Export.OriginProviders[p]; ok && selective == nil {
			selective = []Event{WithdrawPrefix(p)}
		}
		if _, ok := pol.Export.NoUpstream[p]; ok && tagged == nil {
			tagged = []Event{WithdrawPrefix(p)}
		}
	}
	if selective == nil || tagged == nil {
		f.Fatal("no prefix has an OriginProviders and a NoUpstream entry to withdraw")
	}
	peerA, peerB := somePeerEdge(f, topo)
	other := base.e.prefixes[len(base.e.prefixes)-1]
	if other == prefix {
		other = base.e.prefixes[0]
	}
	attacker := peerA
	if topo.PrefixOrigin[other] == attacker {
		attacker = peerB
	}
	churn := Scenario{Name: "churn", Events: []Event{WithdrawPrefix(other), AnnouncePrefix(other, attacker)}}
	linkChurn, _ := vantageLinkFailure(f, base, [][2]bgp.ASN{{stub, providers[0]}, {peerA, peerB}})
	for _, events := range [][]Event{
		{FailLink(stub, providers[0])},
		{FailLink(peerA, peerB), RestoreLink(peerA, peerB, asgraph.RelPeer)},
		{WithdrawPrefix(prefix)},
		{AnnouncePrefix(netx.MustParsePrefix("198.51.100.0/24"), peerA)},
		{SetLocalPref(providers[0], stub, 40), SetPrefixLocalPref(providers[1], stub, prefix, 30)},
		{ToggleProviderAnnouncement(prefix, providers[0], false)},
		{TagNoUpstream(prefix, providers[1])},
		{WithdrawPrefix(prefix), AnnouncePrefix(prefix, peerB)},
		// Every entry kind of one AS's Policy, some written twice: each
		// undo record must put back its own entry.
		{SetLocalPref(stub, providers[0], 40), SetLocalPref(stub, providers[0], 60),
			SetPrefixLocalPref(stub, providers[1], prefix, 30), TagNoUpstream(prefix, providers[1]),
			ToggleProviderAnnouncement(prefix, providers[0], false), TagNoUpstream(prefix, providers[0]),
			WithdrawPrefix(prefix)},
		selective, tagged,
	} {
		data, err := json.Marshal(Scenario{Events: events})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := LoadScenario(bytes.NewReader(data))
		if err != nil || len(sc.Events) > 16 {
			return
		}
		work.Checkpoint()
		_, err = work.Apply(sc)
		if !work.Rollback() {
			t.Fatal("rollback refused")
		}
		requireRolledBack(t, "after rollback", work, untouched, pristine)
		if err != nil {
			return // failed validation: the checkpoint went unused
		}
		// The same scenario again, now on what the rollback left, with a
		// Clone taken between Apply and Rollback: the rollback restores
		// under it, and it keeps what the Apply made.
		fresh := base.Clone()
		want, err := fresh.Apply(sc)
		if err != nil {
			t.Fatalf("a fresh clone refuses what the engine applied: %v", err)
		}
		work.Checkpoint()
		got, err := work.Apply(sc)
		if err != nil {
			t.Fatalf("the rolled-back engine refuses what it applied before: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Delta on the rolled-back engine differs from a fresh clone's: recomputed %d vs %d, %d vs %d shifts",
				got.Recomputed, want.Recomputed, len(got.Shifts), len(want.Shifts))
		}
		held := work.Clone()
		work.Rollback()
		requireRolledBack(t, "after the second rollback", work, untouched, pristine)
		for _, c := range []Scenario{churn, linkChurn} {
			work.Checkpoint()
			if _, err := work.Apply(c); err != nil {
				t.Fatalf("%s after the second rollback: %v", c.Name, err)
			}
			work.Rollback()
		}
		if diffs := DiffResults(fresh.Result(), held.Result()); len(diffs) > 0 {
			t.Fatalf("a clone taken before the rollback differs from a fresh clone's Apply: %s", diffs[0])
		}
		requireRolledBack(t, "after the churn", work, untouched, pristine)
		if err := held.checkInvariants(); err != nil {
			t.Fatalf("a clone taken before the rollback, after the churn: %v", err)
		}
		want, wantErr := fresh.Apply(linkChurn)
		got, gotErr := held.Apply(linkChurn)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s on the held clone: %v; on a fresh clone: %v", linkChurn.Name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on the held clone differs from a fresh clone's: recomputed %d vs %d, %d vs %d shifts",
				linkChurn.Name, got.Recomputed, want.Recomputed, len(got.Shifts), len(want.Shifts))
		}
	})
}

// vantageLinkFailure returns the failure of a link, none of the avoided
// pairs, whose endpoint is a vantage point holding a candidate over it
// for prefix that is not its best: the failure relinks both endpoints and
// withdraws that candidate from the table. Of those links it takes the
// one whose endpoints have the most neighbors, the largest relink.
func vantageLinkFailure(t testing.TB, en *Engine, avoid [][2]bgp.ASN) (sc Scenario, prefix netx.Prefix) {
	t.Helper()
	e, g := en.e, en.Topology().Graph
	var vantages []int
	for vi := range e.tables {
		vantages = append(vantages, vi)
	}
	slices.Sort(vantages)
	most := -1
	for _, vi := range vantages {
		slot, v := e.tables[vi], e.asns[vi]
		for _, u := range g.Neighbors(v) {
			if g.Degree(v)+g.Degree(u) <= most ||
				slices.ContainsFunc(avoid, func(p [2]bgp.ASN) bool { return p == [2]bgp.ASN{u, v} || p == [2]bgp.ASN{v, u} }) {
				continue
			}
			for _, p := range e.prefixes {
				if r := slot.rib.CandidateFrom(p, u); r != nil && r != slot.rib.Best(p) {
					most = g.Degree(v) + g.Degree(u)
					sc, prefix = Scenario{Name: fmt.Sprintf("fail AS%d-AS%d", v, u), Events: []Event{FailLink(v, u)}}, p
					break
				}
			}
		}
	}
	if most < 0 {
		t.Fatal("no vantage point holds a candidate that is not its best")
	}
	return sc, prefix
}
