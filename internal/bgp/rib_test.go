package bgp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/policyscope/policyscope/internal/netx"
)

func ribRoute(prefix, path string, lp uint32) *Route {
	r := mkRoute(path, lp)
	r.Prefix = netx.MustParsePrefix(prefix)
	return r
}

func TestRIBUpsertSelectsBest(t *testing.T) {
	rib := NewRIB(7018)
	p := netx.MustParsePrefix("10.0.0.0/8")

	if changed := rib.Upsert(701, ribRoute("10.0.0.0/8", "701 9 100", 90)); !changed {
		t.Fatal("first route must change best")
	}
	// Better localpref from another neighbor takes over.
	if changed := rib.Upsert(1239, ribRoute("10.0.0.0/8", "1239 100", 100)); !changed {
		t.Fatal("better route must change best")
	}
	best := rib.Best(p)
	if best == nil || best.LocalPref != 100 {
		t.Fatalf("best = %v", best)
	}
	// A worse route does not change the best.
	if changed := rib.Upsert(3549, ribRoute("10.0.0.0/8", "3549 9 9 100", 80)); changed {
		t.Fatal("worse route must not change best")
	}
	if rib.Len() != 1 || rib.NumRoutes() != 3 {
		t.Fatalf("Len=%d NumRoutes=%d", rib.Len(), rib.NumRoutes())
	}
}

func TestRIBReplaceFromSameNeighbor(t *testing.T) {
	rib := NewRIB(7018)
	p := netx.MustParsePrefix("10.0.0.0/8")
	rib.Upsert(701, ribRoute("10.0.0.0/8", "701 100", 100))
	// Same neighbor re-announces with lower preference: replaces, best falls
	// back to recomputed winner.
	rib.Upsert(1239, ribRoute("10.0.0.0/8", "1239 5 100", 90))
	changed := rib.Upsert(701, ribRoute("10.0.0.0/8", "701 100", 50))
	if !changed {
		t.Fatal("replacement that demotes the best must report change")
	}
	best := rib.Best(p)
	if nh, _ := best.NextHopAS(); nh != 1239 {
		t.Fatalf("best next hop = %v, want 1239", nh)
	}
	if rib.NumRoutes() != 2 {
		t.Fatalf("NumRoutes = %d, want 2 (replacement, not addition)", rib.NumRoutes())
	}
}

func TestRIBWithdraw(t *testing.T) {
	rib := NewRIB(7018)
	p := netx.MustParsePrefix("10.0.0.0/8")
	rib.Upsert(701, ribRoute("10.0.0.0/8", "701 100", 100))
	rib.Upsert(1239, ribRoute("10.0.0.0/8", "1239 100", 90))

	if changed := rib.Withdraw(1239, p); changed {
		t.Fatal("withdrawing a non-best route must not change best")
	}
	if changed := rib.Withdraw(701, p); !changed {
		t.Fatal("withdrawing the best route must change best")
	}
	if rib.Best(p) != nil {
		t.Fatal("prefix must be gone after last withdrawal")
	}
	if rib.Withdraw(701, p) {
		t.Fatal("withdrawing absent route must be a no-op")
	}
	if rib.Withdraw(9999, netx.MustParsePrefix("99.0.0.0/8")) {
		t.Fatal("withdrawing unknown prefix must be a no-op")
	}
	if rib.Len() != 0 {
		t.Fatalf("Len = %d after full withdrawal", rib.Len())
	}
}

func TestRIBCandidatesOrder(t *testing.T) {
	rib := NewRIB(1)
	p := netx.MustParsePrefix("10.0.0.0/8")
	rib.Upsert(300, ribRoute("10.0.0.0/8", "300 9", 100))
	rib.Upsert(100, ribRoute("10.0.0.0/8", "100 9", 100))
	rib.Upsert(200, ribRoute("10.0.0.0/8", "200 9", 100))
	cands := rib.Candidates(p)
	if len(cands) != 3 {
		t.Fatalf("candidates = %d", len(cands))
	}
	for i, want := range []ASN{100, 200, 300} {
		nh, _ := cands[i].NextHopAS()
		if nh != want {
			t.Fatalf("candidate[%d] from %v, want %v", i, nh, want)
		}
	}
	if got := rib.CandidateFrom(p, 200); got == nil {
		t.Fatal("CandidateFrom missed present route")
	}
	if got := rib.CandidateFrom(p, 999); got != nil {
		t.Fatal("CandidateFrom invented a route")
	}
	if got := rib.Candidates(netx.MustParsePrefix("50.0.0.0/8")); got != nil {
		t.Fatal("Candidates for absent prefix must be nil")
	}
}

func TestRIBDeterministicTieBreak(t *testing.T) {
	// Two completely tied routes: lowest neighbor ASN must win, however
	// insertion order varies.
	build := func(order []ASN) ASN {
		rib := NewRIB(1)
		for _, n := range order {
			r := ribRoute("10.0.0.0/8", "", 100)
			r.Path = Path{n, 500}
			rib.Upsert(n, r)
		}
		nh, _ := rib.Best(netx.MustParsePrefix("10.0.0.0/8")).NextHopAS()
		return nh
	}
	a := build([]ASN{400, 200, 300})
	b := build([]ASN{300, 400, 200})
	if a != b || a != 200 {
		t.Fatalf("tie-break not deterministic: %v vs %v", a, b)
	}
}

func TestRIBPrefixOrderAndEachBest(t *testing.T) {
	rib := NewRIB(1)
	for _, s := range []string{"30.0.0.0/8", "10.0.0.0/8", "20.0.0.0/8"} {
		rib.Upsert(2, ribRoute(s, "2 9", 100))
	}
	ps := rib.Prefixes()
	if len(ps) != 3 || ps[0].String() != "10.0.0.0/8" || ps[2].String() != "30.0.0.0/8" {
		t.Fatalf("prefix order: %v", ps)
	}
	var n int
	rib.EachBest(func(p netx.Prefix, r *Route) {
		if r.Prefix != p {
			t.Fatalf("EachBest mismatch %v vs %v", p, r.Prefix)
		}
		n++
	})
	if n != 3 || len(rib.BestRoutes()) != 3 {
		t.Fatalf("EachBest visited %d", n)
	}
}

func TestRIBDecisionDepthTruncation(t *testing.T) {
	rib := NewRIB(1)
	rib.SetDecisionDepth(StepLocalPref)
	p := netx.MustParsePrefix("10.0.0.0/8")
	// Same localpref, different path lengths. With depth 1 they tie and the
	// lowest-neighbor route wins regardless of path length.
	rib.Upsert(100, ribRoute("10.0.0.0/8", "100 5 5 9", 100))
	rib.Upsert(200, ribRoute("10.0.0.0/8", "200 9", 100))
	nh, _ := rib.Best(p).NextHopAS()
	if nh != 100 {
		t.Fatalf("truncated decision best from %v, want 100", nh)
	}
	rib.SetDecisionDepth(0) // restore full depth
	rib.Upsert(100, ribRoute("10.0.0.0/8", "100 5 5 9", 100))
	nh, _ = rib.Best(p).NextHopAS()
	if nh != 200 {
		t.Fatalf("full decision best from %v, want 200", nh)
	}
}

// TestPropertyRIBBestIsUnbeaten: after arbitrary upsert/withdraw churn the
// selected best route is never strictly beaten by a remaining candidate.
func TestPropertyRIBBestIsUnbeaten(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	prefixes := []netx.Prefix{
		netx.MustParsePrefix("10.0.0.0/8"),
		netx.MustParsePrefix("20.0.0.0/8"),
	}
	f := func() bool {
		rib := NewRIB(1)
		for i := 0; i < 80; i++ {
			p := prefixes[r.Intn(len(prefixes))]
			n := ASN(1 + r.Intn(6))
			if r.Intn(4) == 0 {
				rib.Withdraw(n, p)
				continue
			}
			rt := randRoute(r)
			rt.Prefix = p
			rt.Path = append(Path{n}, rt.Path...)
			rib.Upsert(n, rt)
		}
		for _, p := range rib.Prefixes() {
			best := rib.Best(p)
			if best == nil {
				return false // entry without best must have been deleted
			}
			for _, c := range rib.Candidates(p) {
				if Compare7(c, best) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteAccessors(t *testing.T) {
	r := ribRoute("10.0.0.0/8", "701 1239 7018", 100)
	if nh, ok := r.NextHopAS(); !ok || nh != 701 {
		t.Fatalf("NextHopAS = %v, %v", nh, ok)
	}
	if o, ok := r.OriginAS(); !ok || o != 7018 {
		t.Fatalf("OriginAS = %v, %v", o, ok)
	}
	if r.IsLocal() {
		t.Fatal("route with path reported local")
	}
	local := &Route{Prefix: netx.MustParsePrefix("10.0.0.0/8")}
	if !local.IsLocal() {
		t.Fatal("empty-path route must be local")
	}
	c := r.Clone()
	c.Path[0] = 9
	if r.Path[0] == 9 {
		t.Fatal("Clone shares path storage")
	}
	if r.String() == "" {
		t.Fatal("String must be non-empty")
	}
}

// TestRenderEqualIsStringEquality: RenderEqual holds exactly when the
// two routes render to the same Route.String — the rendered attributes
// separate routes, the unrendered ones do not, and nil equals only nil.
func TestRenderEqualIsStringEquality(t *testing.T) {
	base := ribRoute("10.0.0.0/8", "701 9 100", 90)
	variants := []*Route{base.Clone()}
	edit := func(f func(*Route)) {
		r := base.Clone()
		f(r)
		variants = append(variants, r)
	}
	edit(func(r *Route) { r.Prefix = netx.MustParsePrefix("10.0.0.0/9") })
	edit(func(r *Route) { r.Path = Path{701, 100} })
	edit(func(r *Route) { r.Path = Path{701, 9, 101} })
	edit(func(r *Route) { r.Path = nil })
	edit(func(r *Route) { r.LocalPref = 91 })
	edit(func(r *Route) { r.MED = 5 })
	edit(func(r *Route) { r.Origin = OriginIncomplete })
	edit(func(r *Route) { r.NextHop = 0x0a000001 })
	edit(func(r *Route) { r.Communities = Communities{MakeCommunity(701, 80)} })
	edit(func(r *Route) { r.FromIBGP = true })
	edit(func(r *Route) { r.IGPMetric = 7 })
	edit(func(r *Route) { r.RouterID = 3 })
	for i, a := range variants {
		for j, b := range variants {
			if got, want := RenderEqual(a, b), a.String() == b.String(); got != want {
				t.Errorf("variants %d, %d: RenderEqual %v, strings equal %v (%v / %v)", i, j, got, want, a, b)
			}
		}
		if RenderEqual(a, nil) || RenderEqual(nil, a) {
			t.Errorf("variant %d equals nil", i)
		}
	}
	if !RenderEqual(nil, nil) {
		t.Error("nil does not equal nil")
	}
}
