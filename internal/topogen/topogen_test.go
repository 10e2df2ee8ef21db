package topogen

import (
	"reflect"
	"testing"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
)

func genSmall(t *testing.T, n int, seed int64) *Topology {
	t.Helper()
	topo, err := Generate(DefaultConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestGenerateDeterministic(t *testing.T) {
	a := genSmall(t, 120, 7)
	b := genSmall(t, 120, 7)
	if !reflect.DeepEqual(a.Order, b.Order) {
		t.Fatal("AS order differs across identical seeds")
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("edge count differs across identical seeds")
	}
	if !reflect.DeepEqual(a.PrefixOrigin, b.PrefixOrigin) {
		t.Fatal("prefix allocation differs across identical seeds")
	}
	for _, asn := range a.Order {
		if !reflect.DeepEqual(a.Policies[asn].Import.NeighborPref, b.Policies[asn].Import.NeighborPref) {
			t.Fatalf("import policy of %v differs", asn)
		}
		if !reflect.DeepEqual(a.Policies[asn].Export.OriginProviders, b.Policies[asn].Export.OriginProviders) {
			t.Fatalf("export policy of %v differs", asn)
		}
	}
	c := genSmall(t, 120, 8)
	if reflect.DeepEqual(a.PrefixOrigin, c.PrefixOrigin) {
		t.Fatal("different seeds produced identical topologies")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Fatal("zero config must fail")
	}
	bad := DefaultConfig(100, 1)
	bad.AtypicalPrefProb = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("probability > 1 must fail")
	}
	bad = DefaultConfig(100, 1)
	bad.MultihomeDist = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("empty MultihomeDist must fail")
	}
	bad = DefaultConfig(100, 1)
	bad.MultihomeDist = []float64{-1, 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative MultihomeDist must fail")
	}
	bad = DefaultConfig(100, 1)
	bad.TierOneCount = 90
	if err := bad.Validate(); err == nil {
		t.Fatal("oversized TierOneCount must fail")
	}
}

func TestHierarchyStructure(t *testing.T) {
	topo := genSmall(t, 300, 42)
	tier1 := topo.ASesByTier(1)
	if len(tier1) < 5 {
		t.Fatalf("tier-1 count = %d", len(tier1))
	}
	// Tier-1s: full peering clique, no providers.
	for i, a := range tier1 {
		if len(topo.Graph.Providers(a)) != 0 {
			t.Fatalf("tier-1 %v has providers", a)
		}
		for _, b := range tier1[i+1:] {
			if topo.Graph.Rel(a, b) != asgraph.RelPeer {
				t.Fatalf("tier-1 %v and %v are not peers", a, b)
			}
		}
	}
	// Everyone below tier 1 has at least one provider.
	for _, asn := range topo.Order {
		if topo.TierOf(asn) != 1 && len(topo.Graph.Providers(asn)) == 0 {
			t.Fatalf("%v (tier %d) has no providers", asn, topo.TierOf(asn))
		}
	}
	// Stub provider counts stay within the multihoming distribution's range.
	maxProviders := len(DefaultConfig(300, 42).MultihomeDist)
	for _, asn := range topo.ASesByTier(3) {
		if n := len(topo.Graph.Providers(asn)); n < 1 || n > maxProviders {
			t.Fatalf("stub %v has %d providers", asn, n)
		}
	}
	// Graph tiers should broadly agree with generated tiers.
	tiers := topo.Graph.Tiers()
	for _, asn := range tier1 {
		if tiers[asn] != 1 {
			t.Fatalf("graph tier of %v = %d", asn, tiers[asn])
		}
	}
}

func TestPrefixAllocationInvariants(t *testing.T) {
	topo := genSmall(t, 250, 3)
	if topo.TotalPrefixes() == 0 {
		t.Fatal("no prefixes allocated")
	}
	// PrefixOrigin and ASInfo.Prefixes agree.
	count := 0
	for _, asn := range topo.Order {
		for _, p := range topo.ASes[asn].Prefixes {
			count++
			if got, ok := topo.OriginOf(p); !ok || got != asn {
				t.Fatalf("origin of %v = %v, want %v", p, got, asn)
			}
		}
	}
	if count != topo.TotalPrefixes() {
		t.Fatalf("prefix count mismatch: %d vs %d", count, topo.TotalPrefixes())
	}

	// Overlaps only occur in sanctioned shapes: same-AS splits, or
	// provider cover block containing a delegated customer prefix.
	var all []netx.Prefix
	for p := range topo.PrefixOrigin {
		all = append(all, p)
	}
	netx.SortPrefixes(all)
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			a, b := all[i], all[j]
			if !a.Overlaps(b) {
				continue
			}
			oa, ob := topo.PrefixOrigin[a], topo.PrefixOrigin[b]
			if oa == ob {
				continue // same-AS split pair
			}
			// One side must be provider-allocated from the other.
			cover, specific, co, so := a, b, oa, ob
			if b.Contains(a) {
				cover, specific, co, so = b, a, ob, oa
			}
			if !cover.Contains(specific) {
				t.Fatalf("overlap without containment: %v(%v) %v(%v)", a, oa, b, ob)
			}
			if topo.ASes[so].AllocatedFrom[specific] != co {
				t.Fatalf("unsanctioned overlap: %v of %v inside %v of %v", specific, so, cover, co)
			}
		}
	}
}

func TestImportPolicyBands(t *testing.T) {
	topo := genSmall(t, 300, 5)
	atypical, total := 0, 0
	for _, asn := range topo.Order {
		pol := topo.Policies[asn]
		for nb, pref := range pol.Import.NeighborPref {
			rel := topo.Graph.Rel(asn, nb)
			total++
			var lo, hi uint32
			switch rel {
			case asgraph.RelCustomer:
				lo, hi = basePrefCustomer, basePrefCustomer+prefJitter
			case asgraph.RelPeer:
				lo, hi = basePrefPeer, basePrefPeer+prefJitter
			case asgraph.RelProvider:
				lo, hi = basePrefProvider, basePrefProvider+prefJitter
			default:
				t.Fatalf("pref assigned to %v neighbor", rel)
			}
			// The session base value is always typical; violations live
			// in AtypicalPref and apply only to a prefix share.
			if pref < lo || pref >= hi {
				t.Fatalf("%v→%v (%v) base pref %d outside band [%d,%d)", asn, nb, rel, pref, lo, hi)
			}
			if pol.Import.Atypical[nb] {
				atypical++
				av, ok := pol.Import.AtypicalPref[nb]
				if !ok {
					t.Fatalf("%v→%v marked atypical without a value", asn, nb)
				}
				if av >= lo && av < hi {
					t.Fatalf("%v→%v atypical value %d inside its own typical band", asn, nb, av)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no preferences assigned")
	}
	frac := float64(atypical) / float64(total)
	if frac > 0.06 {
		t.Fatalf("atypical fraction %.3f implausibly high", frac)
	}
}

func TestEffectiveLocalPref(t *testing.T) {
	topo := genSmall(t, 300, 5)
	// Find an atypical session and verify the violating value applies to
	// some but not (usually) all prefixes, deterministically.
	var asn, nb bgp.ASN
	for _, a := range topo.Order {
		for n := range topo.Policies[a].Import.AtypicalPref {
			asn, nb = a, n
			break
		}
		if asn != 0 {
			break
		}
	}
	if asn == 0 {
		t.Skip("no atypical session in this seed")
	}
	base := topo.Policies[asn].Import.NeighborPref[nb]
	av := topo.Policies[asn].Import.AtypicalPref[nb]
	sawBase, sawAtypical := false, false
	for p := range topo.PrefixOrigin {
		got := topo.EffectiveLocalPref(asn, nb, p)
		if got2 := topo.EffectiveLocalPref(asn, nb, p); got2 != got {
			t.Fatal("EffectiveLocalPref not deterministic")
		}
		switch got {
		case base:
			sawBase = true
		case av:
			sawAtypical = true
		default:
			// Per-prefix override plane may fire too; it deviates ±2
			// from base.
			if got > base+2 || got+2 < base {
				t.Fatalf("unexpected pref %d (base %d, atypical %d)", got, base, av)
			}
		}
	}
	if !sawAtypical {
		t.Error("atypical value never applied")
	}
	if !sawBase {
		t.Error("base value never applied")
	}
	// Unknown AS falls back to the protocol default.
	if got := topo.EffectiveLocalPref(65533, 1, netx.MustParsePrefix("20.0.0.0/24")); got != bgp.DefaultLocalPref {
		t.Fatalf("unknown AS pref = %d", got)
	}
}

func TestLocalPrefEvaluation(t *testing.T) {
	ip := ImportPolicy{
		NeighborPref: map[bgp.ASN]uint32{10: 95},
		PrefixPref: map[bgp.ASN]map[netx.Prefix]uint32{
			10: {netx.MustParsePrefix("20.0.0.0/24"): 70},
		},
	}
	if got := ip.LocalPref(10, netx.MustParsePrefix("20.0.0.0/24")); got != 70 {
		t.Fatalf("override = %d", got)
	}
	if got := ip.LocalPref(10, netx.MustParsePrefix("20.0.1.0/24")); got != 95 {
		t.Fatalf("neighbor base = %d", got)
	}
	if got := ip.LocalPref(99, netx.MustParsePrefix("20.0.1.0/24")); got != bgp.DefaultLocalPref {
		t.Fatalf("default = %d", got)
	}
}

func TestPrefixOverrideDeterminism(t *testing.T) {
	topo := genSmall(t, 200, 9)
	// Find an AS with a per-prefix neighbor.
	var asn, nb bgp.ASN
	for _, a := range topo.Order {
		for n := range topo.Policies[a].Import.PrefixPref {
			asn, nb = a, n
			break
		}
		if asn != 0 {
			break
		}
	}
	if asn == 0 {
		t.Skip("no per-prefix neighbor in this seed")
	}
	hits := 0
	for p := range topo.PrefixOrigin {
		v1, ok1 := topo.PrefixOverrideFor(asn, nb, p)
		v2, ok2 := topo.PrefixOverrideFor(asn, nb, p)
		if ok1 != ok2 || v1 != v2 {
			t.Fatalf("override not deterministic for %v", p)
		}
		if ok1 {
			hits++
		}
	}
	if hits == 0 {
		t.Log("no overrides hit for this neighbor; acceptable but unusual")
	}
	if _, ok := topo.PrefixOverrideFor(asn, 65535, netx.MustParsePrefix("20.0.0.0/24")); ok {
		t.Fatal("override for unmarked neighbor")
	}
	if _, ok := topo.PrefixOverrideFor(65535, nb, netx.MustParsePrefix("20.0.0.0/24")); ok {
		t.Fatal("override for unknown AS")
	}
}

func TestExportPolicyShapes(t *testing.T) {
	topo := genSmall(t, 400, 11)
	sawSelective, sawTag, sawSplit := false, false, false
	for _, asn := range topo.Order {
		pol := topo.Policies[asn]
		providers := topo.Graph.Providers(asn)
		pset := map[bgp.ASN]bool{}
		for _, p := range providers {
			pset[p] = true
		}
		for prefix, set := range pol.Export.OriginProviders {
			sawSelective = true
			if len(set) == 0 || len(set) >= len(providers)+1 {
				t.Fatalf("%v: selective set size %d of %d providers", asn, len(set), len(providers))
			}
			for p := range set {
				if !pset[p] {
					t.Fatalf("%v: selective set names non-provider %v", asn, p)
				}
			}
			if _, mine := topo.PrefixOrigin[prefix]; !mine {
				t.Fatalf("%v: selective policy for unoriginated prefix %v", asn, prefix)
			}
		}
		for prefix, tagged := range pol.Export.NoUpstream {
			sawTag = true
			if !pset[tagged] {
				t.Fatalf("%v: no-upstream names non-provider %v", asn, tagged)
			}
			if topo.PrefixOrigin[prefix] != asn {
				t.Fatalf("%v: no-upstream for foreign prefix", asn)
			}
		}
		// Split prefixes: a specific with OriginProviders disjoint from the
		// covering prefix's set, both originated here.
		for prefix := range pol.Export.OriginProviders {
			parent, ok := prefix.Parent()
			if !ok {
				continue
			}
			if topo.PrefixOrigin[parent] == asn {
				if cover, ok := pol.Export.OriginProviders[parent]; ok {
					disjoint := true
					for p := range pol.Export.OriginProviders[prefix] {
						if cover[p] {
							disjoint = false
						}
					}
					if disjoint {
						sawSplit = true
					}
				}
			}
		}
	}
	if !sawSelective || !sawTag {
		t.Fatalf("policy coverage: selective=%v tag=%v", sawSelective, sawTag)
	}
	_ = sawSplit // splits are probabilistic at 3%; presence checked in bigger fixture tests
}

func TestAggregationOnlyOnAllocated(t *testing.T) {
	topo := genSmall(t, 400, 13)
	sawAgg := false
	for _, asn := range topo.Order {
		for prefix := range topo.Policies[asn].Export.AggregateSpecifics {
			sawAgg = true
			origin := topo.PrefixOrigin[prefix]
			if topo.ASes[origin].AllocatedFrom[prefix] != asn {
				t.Fatalf("%v aggregates %v not allocated from it", asn, prefix)
			}
		}
	}
	if !sawAgg {
		t.Fatal("no aggregation cases generated at default config")
	}
}

func TestTransitExcludedDeterministic(t *testing.T) {
	ep := ExportPolicy{TransitSelective: 0.5}
	p := netx.MustParsePrefix("20.0.0.0/24")
	a := ep.TransitExcluded(1, p, 2)
	for i := 0; i < 10; i++ {
		if ep.TransitExcluded(1, p, 2) != a {
			t.Fatal("TransitExcluded not deterministic")
		}
	}
	off := ExportPolicy{}
	if off.TransitExcluded(1, p, 2) {
		t.Fatal("zero probability must never exclude")
	}
	// Rough rate check over many inputs.
	hits := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		q := netx.Prefix{Addr: uint32(i) << 12, Len: 20}
		if ep.TransitExcluded(1, q, 2) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if rate < 0.4 || rate > 0.6 {
		t.Fatalf("exclusion rate %.3f far from configured 0.5", rate)
	}
}

func TestCommunityTaggingRoundTrip(t *testing.T) {
	ct := &CommunityTagging{AS: 12859, Variants: 3}
	rels := []asgraph.Relationship{asgraph.RelCustomer, asgraph.RelPeer, asgraph.RelProvider}
	for _, rel := range rels {
		for nb := bgp.ASN(1); nb < 50; nb++ {
			c, ok := ct.TagFor(rel, nb)
			if !ok {
				t.Fatalf("no tag for %v", rel)
			}
			back, ok := ct.ClassOf(c)
			if !ok || back != rel {
				t.Fatalf("ClassOf(TagFor(%v)) = %v, %v", rel, back, ok)
			}
		}
	}
	if _, ok := ct.TagFor(asgraph.RelSibling, 5); ok {
		t.Fatal("sibling must not be tagged")
	}
	if _, ok := ct.ClassOf(bgp.MakeCommunity(999, TagPeerBase)); ok {
		t.Fatal("foreign community must not classify")
	}
	if _, ok := ct.ClassOf(bgp.MakeCommunity(12859, 9)); ok {
		t.Fatal("out-of-range value must not classify")
	}
	scheme := ct.Scheme()
	if len(scheme) != 9 {
		t.Fatalf("scheme rows = %d, want 9 (3 classes x 3 variants)", len(scheme))
	}
}

func TestRegionAndNameAssignment(t *testing.T) {
	topo := genSmall(t, 200, 21)
	regions := map[Region]int{}
	for _, asn := range topo.Order {
		info := topo.ASes[asn]
		if info.Name == "" {
			t.Fatalf("%v unnamed", asn)
		}
		regions[info.Region]++
	}
	if regions[RegionNA] == 0 || regions[RegionEU] == 0 {
		t.Fatalf("region distribution degenerate: %v", regions)
	}
	if regions[RegionNA] < regions[RegionAU] {
		t.Fatalf("NA should dominate AU: %v", regions)
	}
}
