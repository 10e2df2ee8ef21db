package topogen

import (
	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
)

// Ground-truth policy model. These types are consumed by the simulator
// (internal/simulate) when producing routing tables, and by the
// experiment harness when scoring inference accuracy.

// NoUpstreamValue is the low half of the scoped action community
// "provider X: do not re-export this route to your providers or peers".
// The full community is MakeCommunity(X, NoUpstreamValue); only X honors
// it. This models the provider-published traffic-engineering communities
// the paper cites (Quoitin & Bonaventure's survey, [20]).
const NoUpstreamValue uint16 = 911

// Class base values used by relationship-tagging ASes, mirroring the
// AS12859 scheme of Table 11: peers 1000–1999, providers (transit)
// 2000–2999, customers 4000–4999.
const (
	TagPeerBase     uint16 = 1000
	TagProviderBase uint16 = 2000
	TagCustomerBase uint16 = 4000
	// TagClassWidth is the size of each class's value range.
	TagClassWidth uint16 = 1000
)

// Policy is the complete ground-truth configuration of one AS.
type Policy struct {
	AS     bgp.ASN
	Import ImportPolicy
	Export ExportPolicy
	// Tagging is non-nil when the AS tags inbound routes with
	// relationship communities.
	Tagging *CommunityTagging
	// Override holds scenario-injected local-preference assignments that
	// take precedence over every generated import rule. It is nil on
	// generated topologies; what-if policy edits populate it.
	Override *ImportOverride
}

// ImportOverride is a mutable local-preference overlay. Unlike the
// generated ImportPolicy (whose per-prefix behaviour is hash-driven so
// simulation and scoring agree), overrides are explicit: exactly the
// listed assignments change, nothing else.
type ImportOverride struct {
	// Neighbor assigns a preference to every route learned from the key
	// neighbor (unless a Prefix entry is more specific).
	Neighbor map[bgp.ASN]uint32
	// Prefix assigns a preference to a single (neighbor, prefix) pair.
	Prefix map[bgp.ASN]map[netx.Prefix]uint32
}

// LocalPref resolves the override for a route from neighbor, most
// specific first. ok is false when no override applies.
func (o *ImportOverride) LocalPref(neighbor bgp.ASN, prefix netx.Prefix) (uint32, bool) {
	if o == nil {
		return 0, false
	}
	if m, ok := o.Prefix[neighbor]; ok {
		if v, ok := m[prefix]; ok {
			return v, true
		}
	}
	v, ok := o.Neighbor[neighbor]
	return v, ok
}

// SetNeighbor records a neighbor-wide preference override.
func (o *ImportOverride) SetNeighbor(neighbor bgp.ASN, v uint32) {
	if o.Neighbor == nil {
		o.Neighbor = make(map[bgp.ASN]uint32)
	}
	o.Neighbor[neighbor] = v
}

// SetPrefix records a (neighbor, prefix) preference override.
func (o *ImportOverride) SetPrefix(neighbor bgp.ASN, prefix netx.Prefix, v uint32) {
	if o.Prefix == nil {
		o.Prefix = make(map[bgp.ASN]map[netx.Prefix]uint32)
	}
	m := o.Prefix[neighbor]
	if m == nil {
		m = make(map[netx.Prefix]uint32)
		o.Prefix[neighbor] = m
	}
	m[prefix] = v
}

// ImportPolicy assigns local preference.
type ImportPolicy struct {
	// NeighborPref is the next-hop-AS-keyed assignment: the localpref
	// given to every route from that neighbor (the ~98% case of Fig 2).
	NeighborPref map[bgp.ASN]uint32
	// PrefixPref holds per-prefix overrides: neighbor → prefix → value
	// (the small prefix-keyed remainder of Fig 2).
	PrefixPref map[bgp.ASN]map[netx.Prefix]uint32
	// Atypical marks neighbors carrying class-order-violating
	// preferences for part of their prefixes (ground truth for Table 2
	// scoring).
	Atypical map[bgp.ASN]bool
	// AtypicalPref holds the violating value used for an atypical
	// neighbor's affected prefixes; the affected subset is drawn by
	// deterministic hash with Config.AtypicalPrefixShare.
	AtypicalPref map[bgp.ASN]uint32
}

// LocalPref evaluates the import policy for a route for prefix learned
// from neighbor. Routes with no configured preference get the protocol
// default.
func (ip *ImportPolicy) LocalPref(neighbor bgp.ASN, prefix netx.Prefix) uint32 {
	if overrides, ok := ip.PrefixPref[neighbor]; ok {
		if v, ok := overrides[prefix]; ok {
			return v
		}
	}
	return ip.neighborPref(neighbor)
}

// transitKey identifies an (exported prefix, provider) pair for
// intermediate-AS selective announcement.
type transitKey struct {
	Prefix   netx.Prefix
	Provider bgp.ASN
}

// ExportPolicy configures announcement behaviour beyond the standard
// valley-free export rules (which the simulator always enforces).
type ExportPolicy struct {
	// OriginProviders maps an originated prefix to the set of providers
	// it is announced to. A missing entry means "all providers".
	OriginProviders map[netx.Prefix]map[bgp.ASN]bool
	// NoUpstream maps an originated prefix to the single provider that
	// receives it with the scoped no-upstream community attached.
	NoUpstream map[netx.Prefix]bgp.ASN
	// TransitSelective, when positive, is the probability that this AS
	// withholds a given customer-learned prefix from a given provider
	// (intermediate-AS selective announcement). It is evaluated through a
	// deterministic hash of (AS, prefix, provider) so the simulator and
	// the ground-truth scorer always agree.
	TransitSelective float64
	// AggregateSpecifics lists customer prefixes carved from this AS's
	// own address space that it aggregates: learned routes for them are
	// not re-exported to any eBGP neighbor.
	AggregateSpecifics map[netx.Prefix]bool
	// PeerExclude lists (own prefix, peer) pairs withheld from a peer
	// (Table 10's rare case).
	PeerExclude map[transitKey]bool
}

// ExcludedFromPeer reports whether this AS withholds its own prefix from
// the given peer.
func (ep *ExportPolicy) ExcludedFromPeer(prefix netx.Prefix, peer bgp.ASN) bool {
	return ep.PeerExclude[transitKey{Prefix: prefix, Provider: peer}]
}

// TransitExcluded reports whether self withholds prefix from provider
// under the TransitSelective rule.
func (ep *ExportPolicy) TransitExcluded(self bgp.ASN, prefix netx.Prefix, provider bgp.ASN) bool {
	if ep.TransitSelective <= 0 {
		return false
	}
	return hash01(uint32(self), prefix.Addr, uint32(prefix.Len), uint32(provider)) < ep.TransitSelective
}

// hash01 maps its inputs to [0,1) with FNV-1a.
func hash01(vals ...uint32) float64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range vals {
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(v>>shift) & 0xff
			h *= prime
		}
	}
	return float64(h>>11) / float64(1<<53)
}

// AnnouncesToProvider reports whether prefix (originated here) is
// announced to provider p.
func (ep *ExportPolicy) AnnouncesToProvider(prefix netx.Prefix, p bgp.ASN) bool {
	set, ok := ep.OriginProviders[prefix]
	if !ok {
		return true
	}
	return set[p]
}

// CommunityTagging is a Table-11-style scheme: each relationship class
// maps to a range of community values; individual neighbors may get
// distinct variants inside the range.
type CommunityTagging struct {
	// AS is the tagging AS (the high half of every tag).
	AS bgp.ASN
	// Variants is how many distinct values each class uses (≥1).
	Variants int
	// Published marks schemes the operator published (IRR/web); the
	// verifier may use them directly instead of inferring semantics
	// from prefix counts.
	Published bool
}

// TagFor returns the community the AS attaches to routes received from
// neighbor, given the neighbor's relationship. Distinct neighbors spread
// deterministically across the class's variants.
func (ct *CommunityTagging) TagFor(rel asgraph.Relationship, neighbor bgp.ASN) (bgp.Community, bool) {
	var base uint16
	switch rel {
	case asgraph.RelCustomer:
		base = TagCustomerBase
	case asgraph.RelPeer:
		base = TagPeerBase
	case asgraph.RelProvider:
		base = TagProviderBase
	default:
		return 0, false
	}
	v := 1
	if ct.Variants > 1 {
		v = ct.Variants
	}
	variant := uint16(uint32(neighbor) % uint32(v)) // #nosec: deterministic spread, not crypto
	return bgp.MakeCommunity(ct.AS, base+variant*10), true
}

// ClassOf inverts TagFor: it maps a community value back to the
// relationship class its value range encodes. ok is false for values
// outside every class range or communities not owned by the tagging AS.
func (ct *CommunityTagging) ClassOf(c bgp.Community) (asgraph.Relationship, bool) {
	if c.AS() != ct.AS {
		return asgraph.RelNone, false
	}
	v := c.Value()
	switch {
	case v >= TagCustomerBase && v < TagCustomerBase+TagClassWidth:
		return asgraph.RelCustomer, true
	case v >= TagPeerBase && v < TagPeerBase+TagClassWidth:
		return asgraph.RelPeer, true
	case v >= TagProviderBase && v < TagProviderBase+TagClassWidth:
		return asgraph.RelProvider, true
	}
	return asgraph.RelNone, false
}

// Scheme renders the tagging scheme as (community, description) rows —
// the shape of Table 11.
func (ct *CommunityTagging) Scheme() []TagSchemeEntry {
	v := 1
	if ct.Variants > 1 {
		v = ct.Variants
	}
	var out []TagSchemeEntry
	add := func(base uint16, what string) {
		for i := 0; i < v; i++ {
			out = append(out, TagSchemeEntry{
				Community:   bgp.MakeCommunity(ct.AS, base+uint16(i)*10),
				Description: what,
			})
		}
	}
	add(TagPeerBase, "Route received from peer")
	add(TagProviderBase, "Route received from transit provider")
	add(TagCustomerBase, "Route received from customer")
	return out
}

// TagSchemeEntry is one row of a published community scheme.
type TagSchemeEntry struct {
	Community   bgp.Community
	Description string
}
