package policyscope

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/simulate"
)

// The differential oracle for WhatIfReport.PeerBestChanged: the
// snapshot-and-diff the report was built from before the engine counted
// changed bests itself. It renders every best route at every peer
// before and after the Apply and diffs the strings — 68,000 Sprintfs
// per paper-preset request, which is why it lives here and not in
// whatIfOn — and is independent of the engine's pre-image bookkeeping.

// peerBestSnapshot captures each peer's best-route view as rendered
// strings (path + preference).
func peerBestSnapshot(eng *simulate.Engine, peers []bgp.ASN) map[bgp.ASN]map[netx.Prefix]string {
	res := eng.Result()
	out := make(map[bgp.ASN]map[netx.Prefix]string, len(peers))
	for _, peer := range peers {
		rib := res.Tables[peer]
		if rib == nil {
			continue
		}
		view := make(map[netx.Prefix]string, rib.Len())
		rib.EachBest(func(p netx.Prefix, r *bgp.Route) {
			view[p] = r.String()
		})
		out[peer] = view
	}
	return out
}

func diffBestViews(before, after map[netx.Prefix]string) int {
	n := 0
	for p, b := range before {
		if a, ok := after[p]; !ok || a != b {
			n++
		}
	}
	for p := range after {
		if _, ok := before[p]; !ok {
			n++
		}
	}
	return n
}

// checkPeerBestChanged applies sc on eng through whatIfOn and holds the
// report's PeerBestChanged against the oracle. It returns the total
// number of changed bests so callers can tell a vacuous pass.
func checkPeerBestChanged(t *testing.T, s *Study, eng *simulate.Engine, sc simulate.Scenario) int {
	t.Helper()
	before := peerBestSnapshot(eng, s.Peers)
	rep, err := s.whatIfOn(eng, sc)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	after := peerBestSnapshot(eng, s.Peers)
	want := make(map[bgp.ASN]int, len(s.Peers))
	total := 0
	for _, peer := range s.Peers {
		want[peer] = diffBestViews(before[peer], after[peer])
		total += want[peer]
	}
	if !reflect.DeepEqual(rep.PeerBestChanged, want) {
		t.Errorf("%s: PeerBestChanged\n got %v\nwant %v", sc.Name, rep.PeerBestChanged, want)
	}
	return total
}

// TestPeerBestChangedMatchesSnapshotDiff: for three topology seeds,
// every event kind and several multi-event batches, the counts the
// engine derives from the entries it rewrote equal the full
// render-and-diff of both states.
func TestPeerBestChangedMatchesSnapshotDiff(t *testing.T) {
	for _, seed := range []int64{7, 8, 9} {
		s := smallStudySeeded(t, seed)
		base, err := s.WhatIfEngine()
		if err != nil {
			t.Fatal(err)
		}
		_, stub, provider, ok := s.FailoverScenario()
		if !ok {
			t.Fatalf("seed %d: no multihomed stub", seed)
		}
		rel := s.Topo.Graph.Rel(stub, provider)
		backup := s.Topo.Graph.Providers(stub)[1]
		prefix := s.Topo.ASes[stub].Prefixes[0]
		fresh := netx.MustParsePrefix("203.0.113.0/24")
		// A collector peer's own session: re-pricing it moves that
		// peer's best routes, and failing it takes the peer's best
		// candidate for much of its table.
		peer := s.Peers[0]
		peerNbrs := s.Topo.Graph.Neighbors(peer)
		peerNbr := peerNbrs[len(peerNbrs)-1]
		attacker := s.Topo.Order[len(s.Topo.Order)/2]
		if attacker == stub {
			attacker = s.Topo.Order[0]
		}
		name := func(n string) string { return fmt.Sprintf("seed%d/%s", seed, n) }
		hijack := simulate.Scenario{Name: name("hijack"), Events: []simulate.Event{
			simulate.WithdrawPrefix(prefix),
			simulate.AnnouncePrefix(prefix, attacker),
		}}
		failStub := simulate.Scenario{Name: name("link_fail"), Events: []simulate.Event{
			simulate.FailLink(stub, provider),
		}}

		singles := []simulate.Scenario{
			failStub,
			{Name: name("link_fail-peer-session"), Events: []simulate.Event{simulate.FailLink(peer, peerNbr)}},
			{Name: name("withdraw"), Events: []simulate.Event{simulate.WithdrawPrefix(prefix)}},
			{Name: name("announce"), Events: []simulate.Event{simulate.AnnouncePrefix(fresh, stub)}},
			{Name: name("local_pref"), Events: []simulate.Event{simulate.SetLocalPref(peer, peerNbr, 4000)}},
			{Name: name("local_pref-per-prefix"), Events: []simulate.Event{
				simulate.SetPrefixLocalPref(provider, stub, prefix, 20),
			}},
			{Name: name("sa_toggle"), Events: []simulate.Event{
				simulate.ToggleProviderAnnouncement(prefix, provider, false),
			}},
			{Name: name("no_upstream"), Events: []simulate.Event{simulate.TagNoUpstream(prefix, provider)}},
			hijack,
			{Name: name("batch-mixed"), Events: []simulate.Event{
				simulate.FailLink(stub, provider),
				simulate.SetLocalPref(peer, peerNbr, 4000),
				simulate.ToggleProviderAnnouncement(prefix, backup, false),
			}},
			{Name: name("batch-two-links"), Events: []simulate.Event{
				simulate.FailLink(stub, provider),
				simulate.FailLink(peer, peerNbr),
			}},
			{Name: name("batch-announce-withdraw"), Events: []simulate.Event{
				simulate.AnnouncePrefix(fresh, stub),
				simulate.WithdrawPrefix(fresh),
			}},
		}
		moved := 0
		for _, sc := range singles {
			n := checkPeerBestChanged(t, s, base.Clone(), sc)
			if sc.Name == hijack.Name && n == 0 {
				t.Errorf("%s: no peer best route changed", sc.Name)
			}
			moved += n
		}
		if moved == 0 {
			t.Errorf("seed %d: no scenario changed any peer best route; the comparison is vacuous", seed)
		}

		// link_restore, and counts per batch rather than cumulative: a
		// second Apply on the same engine is held against a snapshot
		// taken after the first.
		eng := base.Clone()
		checkPeerBestChanged(t, s, eng, failStub)
		checkPeerBestChanged(t, s, eng, simulate.Scenario{Name: name("link_restore"), Events: []simulate.Event{
			simulate.RestoreLink(stub, provider, rel),
		}})
		checkPeerBestChanged(t, s, eng, hijack)

		// Fail and restore one link in one batch: nothing moved net, and
		// every peer is still a key of the map.
		rep, err := s.whatIfOn(base.Clone(), simulate.Scenario{Name: name("fail+restore"), Events: []simulate.Event{
			simulate.FailLink(stub, provider),
			simulate.RestoreLink(stub, provider, rel),
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.PeerBestChanged) != len(s.Peers) {
			t.Errorf("seed %d: fail+restore: %d peers in PeerBestChanged, want %d", seed, len(rep.PeerBestChanged), len(s.Peers))
		}
		for _, p := range s.Peers {
			if n, ok := rep.PeerBestChanged[p]; !ok || n != 0 {
				t.Errorf("seed %d: fail+restore: peer %v: count %d, present %v; want 0, true", seed, p, n, ok)
			}
		}

		// The same batches with a checkpoint armed (journaled link
		// events, then a hijack the journal refuses) and after a
		// rollback: the pre-image bookkeeping is not the journal's.
		eng = base.Clone()
		eng.Checkpoint()
		checkPeerBestChanged(t, s, eng, failStub)
		if !eng.Rollback() {
			t.Fatalf("seed %d: rollback of a link failure refused", seed)
		}
		checkPeerBestChanged(t, s, eng, failStub)
		eng = base.Clone()
		eng.Checkpoint()
		checkPeerBestChanged(t, s, eng, hijack)
	}
}
