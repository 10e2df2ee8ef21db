package routeviews

import (
	"bytes"
	"testing"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/topogen"
)

func fixture(t *testing.T) (*topogen.Topology, []bgp.ASN, *simulate.Result) {
	t.Helper()
	topo, err := topogen.Generate(topogen.DefaultConfig(150, 61))
	if err != nil {
		t.Fatal(err)
	}
	peers := SelectPeers(topo, 12)
	res, err := simulate.Run(topo, simulate.Options{VantagePoints: peers})
	if err != nil {
		t.Fatal(err)
	}
	return topo, peers, res
}

func TestSelectPeers(t *testing.T) {
	topo, peers, _ := fixture(t)
	if len(peers) != 12 {
		t.Fatalf("peers = %d", len(peers))
	}
	t1 := map[bgp.ASN]bool{}
	for _, asn := range topo.ASesByTier(1) {
		t1[asn] = true
	}
	// All tier-1s included (the paper: "nearly all Tier-1 ASs").
	covered := 0
	for _, p := range peers {
		if t1[p] {
			covered++
		}
	}
	if covered != len(t1) {
		t.Fatalf("tier-1 coverage %d of %d", covered, len(t1))
	}
	// Remaining slots go to the largest tier-2s.
	for _, p := range peers {
		if !t1[p] && topo.TierOf(p) != 2 {
			t.Fatalf("non-T1/T2 peer %v (tier %d)", p, topo.TierOf(p))
		}
	}
	// Requesting fewer than the T1 count truncates deterministically.
	small := SelectPeers(topo, 3)
	if len(small) != 3 {
		t.Fatalf("small peers = %d", len(small))
	}
}

func TestCollectSnapshot(t *testing.T) {
	topo, peers, res := fixture(t)
	snap, err := Collect(res, peers, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Timestamp != 1000 || len(snap.Peers) != len(peers) {
		t.Fatalf("snapshot meta: %+v", snap)
	}
	if len(snap.Prefixes()) == 0 {
		t.Fatal("empty snapshot")
	}
	// Each stored route equals the peer's best.
	checked := 0
	for _, peer := range peers {
		rib := res.Tables[peer]
		for _, prefix := range rib.Prefixes() {
			want := rib.Best(prefix)
			got := snap.RouteFrom(peer, prefix)
			if got == nil || !got.Path.Equal(want.Path) {
				t.Fatalf("route mismatch at %v/%v", peer, prefix)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("nothing compared")
	}
	_ = topo
	// Unknown peer errors.
	if _, err := Collect(res, []bgp.ASN{65000}, 0); err == nil {
		t.Fatal("unknown peer must fail")
	}
}

func TestAllPathsDeduplicated(t *testing.T) {
	_, peers, res := fixture(t)
	snap, err := Collect(res, peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	paths := snap.AllPaths()
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	seen := map[string]bool{}
	for _, p := range paths {
		k := p.String()
		if seen[k] {
			t.Fatalf("duplicate path %q", k)
		}
		seen[k] = true
		if len(p) < 2 {
			t.Fatalf("short path %v", p)
		}
	}
}

func TestMRTRoundTrip(t *testing.T) {
	_, peers, res := fixture(t)
	snap, err := Collect(res, peers, 12345)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.WriteMRT(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Timestamp != 12345 || len(back.Peers) != len(snap.Peers) {
		t.Fatalf("meta: %+v", back)
	}
	wantPrefixes := snap.Prefixes()
	gotPrefixes := back.Prefixes()
	if len(wantPrefixes) != len(gotPrefixes) {
		t.Fatalf("prefixes: %d -> %d", len(wantPrefixes), len(gotPrefixes))
	}
	for _, prefix := range wantPrefixes {
		for _, peer := range snap.Peers {
			want := snap.RouteFrom(peer, prefix)
			got := back.RouteFrom(peer, prefix)
			if (want == nil) != (got == nil) {
				t.Fatalf("presence mismatch %v/%v", peer, prefix)
			}
			if want == nil {
				continue
			}
			if !want.Path.Equal(got.Path) || want.LocalPref != got.LocalPref {
				t.Fatalf("route mismatch %v/%v: %v vs %v", peer, prefix, want, got)
			}
			if len(want.Communities) != len(got.Communities) {
				t.Fatalf("communities lost at %v/%v", peer, prefix)
			}
		}
	}
}
