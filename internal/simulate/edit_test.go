package simulate

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
)

// editStack is three edits of one Policy or description entry: first,
// then second on top of it — or, on a Clone taken after first, other.
type editStack struct {
	name                 string
	first, second, other []Event
}

// editStacks returns a stack for every kind of entry an event writes.
// Local preferences keep to Gao & Rexford's safe orderings (a customer
// promoted, a peer or provider demoted), so the cold start the stacks are
// held to has the one stable state a re-convergence can land in.
func editStacks(t *testing.T, topo *topogen.Topology, bare bgp.ASN) []editStack {
	stub, providers, prefix := multihomedStub(t, topo)
	x := byDegree(topo)[0]
	nb := topo.Graph.Neighbors(x)[0]
	prefs := []uint32{40, 50, 60}
	if topo.Graph.Rel(x, nb) == asgraph.RelCustomer {
		prefs = []uint32{200, 250, 300}
	}
	xPrefix := topo.ASes[x].Prefixes[0]
	if topo.PrefixOrigin[xPrefix] == nb {
		t.Fatal("the neighbor originates the priced prefix")
	}
	var attacker bgp.ASN
	for _, asn := range byDegree(topo) {
		if asn != stub {
			attacker = asn
			break
		}
	}
	bareNb := topo.Graph.Providers(bare)[0]
	return []editStack{
		{"neighbor local_pref", []Event{SetLocalPref(x, nb, prefs[0])},
			[]Event{SetLocalPref(x, nb, prefs[1])}, []Event{SetLocalPref(x, nb, prefs[2])}},
		{"prefix local_pref", []Event{SetPrefixLocalPref(x, nb, xPrefix, prefs[0])},
			[]Event{SetPrefixLocalPref(x, nb, xPrefix, prefs[1])}, []Event{SetLocalPref(x, nb, prefs[2])}},
		{"no_upstream", []Event{TagNoUpstream(prefix, providers[0])},
			[]Event{TagNoUpstream(prefix, providers[1])}, []Event{TagNoUpstream(prefix, 0)}},
		{"sa_toggle", []Event{ToggleProviderAnnouncement(prefix, providers[0], false)},
			[]Event{ToggleProviderAnnouncement(prefix, providers[0], true)},
			[]Event{ToggleProviderAnnouncement(prefix, providers[1], false)}},
		{"withdraw, announce", []Event{WithdrawPrefix(prefix)},
			[]Event{AnnouncePrefix(prefix, stub)}, []Event{AnnouncePrefix(prefix, attacker)}},
		{"hijack", []Event{WithdrawPrefix(prefix), AnnouncePrefix(prefix, attacker)},
			[]Event{WithdrawPrefix(prefix), AnnouncePrefix(prefix, stub)}, []Event{WithdrawPrefix(prefix)}},
		{"no Policy", []Event{SetLocalPref(bare, bareNb, 40)},
			[]Event{SetLocalPref(bare, bareNb, 50)}, []Event{TagNoUpstream(topo.ASes[bare].Prefixes[0], bareNb)}},
	}
}

// topoSnapshot deep-copies what an event can write of a topology's
// Policies and AS descriptions.
type topoSnapshot struct {
	policies map[bgp.ASN]*topogen.Policy
	infos    map[bgp.ASN]*topogen.ASInfo
}

func snapshotTopo(topo *topogen.Topology) topoSnapshot {
	s := topoSnapshot{make(map[bgp.ASN]*topogen.Policy), make(map[bgp.ASN]*topogen.ASInfo)}
	for asn, pol := range topo.Policies {
		s.policies[asn] = pol.CloneDeep()
	}
	for asn, info := range topo.ASes {
		s.infos[asn] = info.Clone()
	}
	return s
}

// requireSnapshot holds topo's Policies and descriptions to s with
// reflect.DeepEqual: nil and empty maps and slices differ.
func requireSnapshot(t *testing.T, name string, topo *topogen.Topology, s topoSnapshot) {
	t.Helper()
	if len(topo.Policies) != len(s.policies) {
		t.Fatalf("%s: %d policies, want %d", name, len(topo.Policies), len(s.policies))
	}
	for asn, pol := range topo.Policies {
		if !reflect.DeepEqual(pol, s.policies[asn]) {
			t.Fatalf("%s: AS%d's Policy %+v, want %+v", name, asn, pol, s.policies[asn])
		}
	}
	for asn, info := range topo.ASes {
		if !reflect.DeepEqual(info, s.infos[asn]) {
			t.Fatalf("%s: AS%d's description %+v, want %+v", name, asn, info, s.infos[asn])
		}
	}
}

// requireOverlaid holds en to NewEngine on topo with the batches
// applied, forest rows, tables and reach counts alike.
func requireOverlaid(t *testing.T, name string, en *Engine, topo *topogen.Topology, opts Options, batches ...[]Event) {
	t.Helper()
	mutated := topo.Clone()
	for _, b := range batches {
		if err := (Scenario{Events: b}).ApplyToTopology(mutated); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	want := requireSameForest(t, name, en, mutated, opts)
	if diffs := DiffResults(en.Result(), want.Result()); len(diffs) > 0 {
		t.Fatalf("%s: differs from a fresh engine on the overlaid topology: %v", name, diffs[:min(3, len(diffs))])
	}
}

// TestStackedPolicyEdits: one Policy or description entry edited twice,
// stacked the two ways an engine can stack them. Two Applies under one
// checkpoint: the second's reconstruction must read the entry as the
// first left it, not as the checkpoint found it, and the engine must
// equal NewEngine on the topology with both batches overlaid. The
// Rollback must leave every Policy and description deep-equal to a
// snapshot taken before the checkpoint. And a Clone of an edited engine,
// edited on both sides: each side must equal NewEngine on its own
// overlay — also after the parent's Rollback, which writes what the
// clone shares.
func TestStackedPolicyEdits(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		topo, opts := buildTestTopo(t, 120, seed)
		// One AS is configured with no Policy at all: an edit there creates
		// one, and the rollback has to take it away again.
		stub, _, _ := multihomedStub(t, topo)
		var bare bgp.ASN
		for _, asn := range topo.Order {
			if asn != stub && len(topo.Graph.Providers(asn)) > 0 && len(topo.ASes[asn].Prefixes) > 0 {
				bare = asn
				break
			}
		}
		delete(topo.Policies, bare)
		base, err := NewEngine(topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		pristine := resultSnapshot(base)
		untouched, work := base.Clone(), base.Clone()
		for _, s := range editStacks(t, topo, bare) {
			name := fmt.Sprintf("seed%d/%s", seed, s.name)
			before := snapshotTopo(work.Topology())
			work.Checkpoint()
			for _, b := range [][]Event{s.first, s.second} {
				if _, err := work.Apply(Scenario{Events: b}); err != nil {
					t.Fatalf("%s %+v: %v", name, b, err)
				}
			}
			requireOverlaid(t, name+"/stacked", work, topo, opts, s.first, s.second)
			if !work.Rollback() {
				t.Fatalf("%s: rollback refused", name)
			}
			requireSnapshot(t, name+"/rolled back", work.Topology(), before)
			requireRolledBack(t, name, work, untouched, pristine)

			parent := base.Clone()
			parent.Checkpoint()
			if _, err := parent.Apply(Scenario{Events: s.first}); err != nil {
				t.Fatal(err)
			}
			child := parent.Clone()
			if _, err := parent.Apply(Scenario{Events: s.second}); err != nil {
				t.Fatalf("%s: parent: %v", name, err)
			}
			if _, err := child.Apply(Scenario{Events: s.other}); err != nil {
				t.Fatalf("%s: child: %v", name, err)
			}
			requireOverlaid(t, name+"/parent", parent, topo, opts, s.first, s.second)
			requireOverlaid(t, name+"/child", child, topo, opts, s.first, s.other)
			parent.Rollback()
			requireRolledBack(t, name+"/parent rolled back", parent, untouched, pristine)
			requireOverlaid(t, name+"/child after the parent's rollback", child, topo, opts, s.first, s.other)
		}
	}
}

// TestPolicyUndoRecords: an Apply journals one record per Policy or
// description entry it writes, and reconstruction reads a record's
// pre-image — the first record of an entry, not a later one.
func TestPolicyUndoRecords(t *testing.T) {
	topo, opts := buildTestTopo(t, 120, 1)
	base, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	stub, providers, prefix := multihomedStub(t, topo)
	en := base.Clone()
	en.Checkpoint()
	b := new(deltaBuf)
	if err := en.apply(Scenario{Events: []Event{
		TagNoUpstream(prefix, providers[0]),
		TagNoUpstream(prefix, providers[1]),
		SetLocalPref(stub, providers[0], 40),
	}}, b); err != nil {
		t.Fatal(err)
	}
	i := int32(en.e.idx[stub])
	if n := len(en.e.journal.policies); n != 3 {
		t.Fatalf("%d undo records for three entries written, want 3", n)
	}
	pre := b.rc.pre(i, editNoUpstream, 0, prefix)
	if pre == nil || pre != &b.rc.edits[0] {
		t.Fatal("the pre-image read is not the entry's first record")
	}
	if was, tagged := base.Topology().Policies[stub].Export.NoUpstream[prefix]; pre.had != tagged || pre.asn != was {
		t.Fatalf("pre-image (%v, %v), the base has (%v, %v)", pre.asn, pre.had, was, tagged)
	}
	if b.rc.pre(i, editNoUpstream, 0, netx.Prefix{}) != nil {
		t.Fatal("a record answers for an entry nobody wrote")
	}
	en.Rollback()
	if got := en.Topology().Policies[stub]; got == base.Topology().Policies[stub] {
		t.Fatal("the engine edited the Policy it shares with its base")
	}
}
