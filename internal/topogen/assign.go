package topogen

import (
	"math/rand"
	"sort"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
)

// Ground-truth policy assignment. The marginals here are what the
// inference half of the repo is scored against.

// Base local-preference bands per relationship class. Individual
// neighbors get small deterministic jitter inside the band, so distinct
// neighbors usually carry distinct values (as the paper observes) while
// the class ordering customer > peer > provider holds for typical
// assignments.
const (
	basePrefCustomer = 100
	basePrefPeer     = 90
	basePrefProvider = 80
	prefJitter       = 5 // bands stay disjoint: 100..104, 90..94, 80..84
)

func (t *Topology) assignPolicies(rng *rand.Rand) {
	cfg := t.Config
	asns := make([]bgp.ASN, 0, len(t.ASes))
	for asn := range t.ASes {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })

	for _, asn := range asns {
		p := &Policy{
			AS: asn,
			Import: ImportPolicy{
				NeighborPref: make(map[bgp.ASN]uint32),
				PrefixPref:   make(map[bgp.ASN]map[netx.Prefix]uint32),
				Atypical:     make(map[bgp.ASN]bool),
				AtypicalPref: make(map[bgp.ASN]uint32),
			},
			Export: ExportPolicy{
				OriginProviders:    make(map[netx.Prefix]map[bgp.ASN]bool),
				NoUpstream:         make(map[netx.Prefix]bgp.ASN),
				AggregateSpecifics: make(map[netx.Prefix]bool),
				PeerExclude:        make(map[transitKey]bool),
			},
		}
		t.Policies[asn] = p
		t.assignImport(rng, p)
		t.assignExport(rng, p)
		if rng.Float64() < cfg.TaggingProb {
			p.Tagging = &CommunityTagging{
				AS:        asn,
				Variants:  1 + rng.Intn(3),
				Published: rng.Float64() < cfg.PublishTaggingProb,
			}
		}
	}
	t.assignAggregation(rng)
}

func (t *Topology) assignImport(rng *rand.Rand, p *Policy) {
	cfg := t.Config
	for _, nb := range t.Graph.Neighbors(p.AS) {
		rel := t.Graph.Rel(p.AS, nb)
		var base uint32
		switch rel {
		case asgraph.RelCustomer:
			base = basePrefCustomer
		case asgraph.RelPeer:
			base = basePrefPeer
		case asgraph.RelProvider:
			base = basePrefProvider
		default: // siblings and unknowns keep the protocol default
			continue
		}
		pref := base + uint32(rng.Intn(prefJitter))
		if rng.Float64() < cfg.AtypicalPrefProb {
			if ok, v := t.atypicalPref(rng, p.AS, rel); ok {
				// The violating value applies to a hash-drawn share of
				// the neighbor's prefixes (see EffectiveLocalPref); the
				// session keeps its typical base value otherwise.
				p.Import.Atypical[nb] = true
				p.Import.AtypicalPref[nb] = v
			}
		}
		p.Import.NeighborPref[nb] = pref

		// A minority of neighbors carry per-prefix overrides; the
		// override pool is filled lazily by the simulator caller via
		// OverridePrefixes, because which prefixes arrive on a session is
		// not known at generation time. Here we only mark the neighbor.
		if rng.Float64() < cfg.PrefixPrefProb {
			p.Import.PrefixPref[nb] = make(map[netx.Prefix]uint32)
		}
	}
}

// atypicalPref draws a class-order-violating preference that is provably
// convergence-safe. Gao & Rexford's stability conditions permit any
// relative order of the peer and provider classes as long as transit ASes
// strictly prefer customer routes, so:
//
//   - at a transit AS (one with customers), atypicality is limited to
//     lifting a provider into (or above) the peer band or flattening
//     peer/provider into one band — both below the customer band;
//   - at a stub (no customers, hence never inside a dispute wheel), any
//     violation is safe, including preferring a provider or peer over
//     customers.
//
// The returned flag is false when the relationship admits no safe
// violation (e.g. a customer neighbor at a transit AS).
func (t *Topology) atypicalPref(rng *rand.Rand, asn bgp.ASN, rel asgraph.Relationship) (bool, uint32) {
	isStub := len(t.Graph.Customers(asn)) == 0
	switch rel {
	case asgraph.RelProvider:
		if isStub && rng.Float64() < 0.3 {
			// Stub prefers a provider like a customer route.
			return true, basePrefCustomer + uint32(rng.Intn(prefJitter))
		}
		// Provider lifted into the peer band ("provider not lower than
		// peer", the atypicality Table 2 mostly sees).
		return true, basePrefPeer + uint32(rng.Intn(prefJitter))
	case asgraph.RelPeer:
		if isStub {
			return true, basePrefCustomer + uint32(rng.Intn(prefJitter))
		}
		// Peer demoted into the provider band: provider ≥ peer violation
		// seen from the other side, still customer-dominant.
		return true, basePrefProvider + uint32(rng.Intn(prefJitter))
	case asgraph.RelCustomer:
		if isStub {
			// A stub with a customer neighbor cannot exist (customers
			// would make it non-stub); nothing to do.
			return false, 0
		}
		// Demoting a customer at a transit AS risks dispute wheels; skip.
		return false, 0
	}
	return false, 0
}

// EffectiveLocalPref resolves the local preference asn assigns to a
// route for prefix learned from neighbor, applying (in order) scenario
// overrides, per-prefix overrides, the atypical-prefix rule, and the
// neighbor base value. This is the single entry point the simulator
// uses, so ground-truth scoring and simulation can never disagree.
func (t *Topology) EffectiveLocalPref(asn, neighbor bgp.ASN, prefix netx.Prefix) uint32 {
	return t.EffectiveLocalPrefWith(t.Policies[asn], asn, neighbor, prefix)
}

// EffectiveLocalPrefWith is EffectiveLocalPref evaluated against an
// explicit policy instead of the topology's current one. The scenario
// engine uses it to reconstruct pre-event routes after a policy edit.
func (t *Topology) EffectiveLocalPrefWith(p *Policy, asn, neighbor bgp.ASN, prefix netx.Prefix) uint32 {
	if p == nil {
		return bgp.DefaultLocalPref
	}
	if v, ok := p.Override.LocalPref(neighbor, prefix); ok {
		return v
	}
	if v, ok := t.prefixOverrideWith(p, asn, neighbor, prefix); ok {
		return v
	}
	if av, ok := p.Import.AtypicalPref[neighbor]; ok {
		if hash01(uint32(asn), uint32(neighbor), prefix.Addr^0x5a5a5a5a, uint32(prefix.Len)) < t.Config.AtypicalPrefixShare {
			return av
		}
	}
	return p.Import.neighborPref(neighbor)
}

// NeighborLocalPref is EffectiveLocalPrefWith for a neighbor whose routes
// all get one preference from p's generated import rules: that value, and
// ok false when the rules price the neighbor's routes per prefix (a
// per-prefix or atypical neighbor) and only EffectiveLocalPrefWith, asked
// per prefix, can say. Scenario overrides are not consulted: where
// p.Override is set, EffectiveLocalPrefWith decides.
func (p *Policy) NeighborLocalPref(neighbor bgp.ASN) (uint32, bool) {
	if p == nil {
		return bgp.DefaultLocalPref, true
	}
	_, perPrefix := p.Import.PrefixPref[neighbor]
	_, atypical := p.Import.AtypicalPref[neighbor]
	if perPrefix || atypical {
		return 0, false
	}
	return p.Import.neighborPref(neighbor), true
}

// neighborPref is the neighbor's base value, the protocol default for a
// neighbor the generator gave none.
func (ip *ImportPolicy) neighborPref(neighbor bgp.ASN) uint32 {
	if v, ok := ip.NeighborPref[neighbor]; ok {
		return v
	}
	return bgp.DefaultLocalPref
}

// PrefixOverrideFor computes the per-prefix local preference for a
// (neighbor, prefix) pair on a neighbor marked for per-prefix
// assignment. The decision and the value are pure deterministic hashes —
// no state is mutated, so concurrent simulation workers and ground-truth
// scorers always agree. ok is false when the neighbor uses pure
// next-hop assignment or the prefix is not one of the overridden ones.
func (t *Topology) PrefixOverrideFor(asn, neighbor bgp.ASN, prefix netx.Prefix) (uint32, bool) {
	return t.prefixOverrideWith(t.Policies[asn], asn, neighbor, prefix)
}

func (t *Topology) prefixOverrideWith(p *Policy, asn, neighbor bgp.ASN, prefix netx.Prefix) (uint32, bool) {
	if p == nil {
		return 0, false
	}
	if _, marked := p.Import.PrefixPref[neighbor]; !marked {
		return 0, false
	}
	if hash01(uint32(asn), uint32(neighbor), prefix.Addr, uint32(prefix.Len)) >= t.Config.PrefixPrefShare {
		return 0, false
	}
	// Deviate from the neighbor's base value by ±2 so the prefix stands
	// out in the Fig-2 consistency measurement without leaving the band
	// entirely.
	base := p.Import.NeighborPref[neighbor]
	if base == 0 {
		base = bgp.DefaultLocalPref
	}
	delta := uint32(1 + uint32(hash01(prefix.Addr, uint32(neighbor))*2))
	if hash01(uint32(neighbor), prefix.Addr) < 0.5 {
		return base + delta, true
	}
	return base - delta, true
}

func (t *Topology) assignExport(rng *rand.Rand, p *Policy) {
	cfg := t.Config
	info := t.ASes[p.AS]
	providers := t.Graph.Providers(p.AS)

	// Backbone-less multi-site organizations: each prefix is a "site"
	// homed on exactly one provider. These are not traffic engineering
	// but look identical to selective announcement from outside — the
	// paper's AOL confounder. Multi-site assignment pre-empts the other
	// origin-side policies.
	if info.Tier == 3 && len(providers) >= 2 && len(info.Prefixes) >= 2 &&
		rng.Float64() < cfg.MultiSiteProb {
		info.MultiSite = true
		for i, prefix := range info.Prefixes {
			site := providers[i%len(providers)]
			p.Export.OriginProviders[prefix] = map[bgp.ASN]bool{site: true}
		}
		return
	}

	if len(providers) >= 2 {
		for _, prefix := range info.Prefixes {
			if rng.Float64() >= cfg.SelectiveAnnounceProb {
				continue
			}
			if rng.Float64() < cfg.NoUpstreamTagProb {
				// Announce everywhere, scope one provider's propagation.
				p.Export.NoUpstream[prefix] = providers[rng.Intn(len(providers))]
				continue
			}
			// Proper subset of providers, at least one.
			subsetSize := 1 + rng.Intn(len(providers)-1)
			perm := rng.Perm(len(providers))
			set := make(map[bgp.ASN]bool, subsetSize)
			for _, idx := range perm[:subsetSize] {
				set[providers[idx]] = true
			}
			p.Export.OriginProviders[prefix] = set
		}

		// Case-1 prefix splitting: take one prefix that can still be
		// split, announce the specific on one provider and the covering
		// prefix on the others.
		if rng.Float64() < cfg.SplitPrefixProb {
			t.splitOnePrefix(rng, p, providers)
		}
	}

	// Intermediate-AS selective announcement for transit ASes.
	if len(t.Graph.Customers(p.AS)) > 0 && len(providers) > 0 {
		p.Export.TransitSelective = cfg.TransitSelectiveProb
	}

	// Rare peer-facing withholding of own prefixes (Table 10).
	for _, peer := range t.Graph.Peers(p.AS) {
		if rng.Float64() >= cfg.PeerSelectiveProb {
			continue
		}
		// Withhold a random strict subset of own prefixes from this peer.
		if len(info.Prefixes) < 2 {
			continue
		}
		n := 1 + rng.Intn(len(info.Prefixes)-1)
		perm := rng.Perm(len(info.Prefixes))
		for _, idx := range perm[:n] {
			p.Export.PeerExclude[transitKey{Prefix: info.Prefixes[idx], Provider: peer}] = true
		}
	}
}

// splitOnePrefix implements the paper's Case 1: a /23-or-shorter prefix
// gains a more-specific half announced on a disjoint provider subset.
func (t *Topology) splitOnePrefix(rng *rand.Rand, p *Policy, providers []bgp.ASN) {
	info := t.ASes[p.AS]
	for _, prefix := range info.Prefixes {
		if prefix.Len >= 24 {
			continue
		}
		specific, _, ok := prefix.Split()
		if !ok {
			continue
		}
		if _, taken := t.PrefixOrigin[specific]; taken {
			continue
		}
		// The specific goes to provider A only; the covering prefix to
		// the remaining providers only.
		a := providers[rng.Intn(len(providers))]
		coverSet := make(map[bgp.ASN]bool)
		for _, pr := range providers {
			if pr != a {
				coverSet[pr] = true
			}
		}
		info.Prefixes = append(info.Prefixes, specific)
		netx.SortPrefixes(info.Prefixes)
		t.PrefixOrigin[specific] = p.AS
		if allocator, ok := info.AllocatedFrom[prefix]; ok {
			// Splitting a provider-allocated prefix keeps the specific
			// inside the provider's address block.
			info.AllocatedFrom[specific] = allocator
		}
		p.Export.OriginProviders[specific] = map[bgp.ASN]bool{a: true}
		p.Export.OriginProviders[prefix] = coverSet
		return
	}
}

// assignAggregation fills provider-side AggregateSpecifics for
// provider-allocated customer prefixes (Case 2).
func (t *Topology) assignAggregation(rng *rand.Rand) {
	cfg := t.Config
	for _, asn := range sortedASNs(t.ASes) {
		info := t.ASes[asn]
		prefixes := make([]netx.Prefix, 0, len(info.AllocatedFrom))
		for p := range info.AllocatedFrom {
			prefixes = append(prefixes, p)
		}
		netx.SortPrefixes(prefixes)
		for _, prefix := range prefixes {
			provider := info.AllocatedFrom[prefix]
			if rng.Float64() < cfg.AggregationProb {
				t.Policies[provider].Export.AggregateSpecifics[prefix] = true
			}
		}
	}
}

func sortedASNs(m map[bgp.ASN]*ASInfo) []bgp.ASN {
	out := make([]bgp.ASN, 0, len(m))
	for asn := range m {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
