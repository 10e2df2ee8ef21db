package topogen

import (
	"maps"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
)

// Mutable topology views for the what-if scenario engine
// (internal/simulate). Clone produces an independent copy that scenario
// events — link failures, prefix withdrawals, policy edits — may mutate
// freely without disturbing the study's base topology.

// Clone returns a deep copy of the topology covering every structure a
// scenario event may mutate: the annotated graph, per-AS descriptions,
// prefix ownership and policies. Policy fields events never touch
// (generated import maps, aggregation sets) are shared.
func (t *Topology) Clone() *Topology {
	c := &Topology{
		Config:       t.Config,
		Graph:        t.Graph.Clone(),
		ASes:         make(map[bgp.ASN]*ASInfo, len(t.ASes)),
		Order:        append([]bgp.ASN(nil), t.Order...),
		PrefixOrigin: make(map[netx.Prefix]bgp.ASN, len(t.PrefixOrigin)),
		Policies:     make(map[bgp.ASN]*Policy, len(t.Policies)),
	}
	for asn, info := range t.ASes {
		c.ASes[asn] = info.Clone()
	}
	for p, origin := range t.PrefixOrigin {
		c.PrefixOrigin[p] = origin
	}
	for asn, pol := range t.Policies {
		c.Policies[asn] = pol.CloneDeep()
	}
	return c
}

// Clone returns an independent copy of the AS description (prefix events
// edit Prefixes in place).
func (a *ASInfo) Clone() *ASInfo {
	c := *a
	c.Prefixes = append([]netx.Prefix(nil), a.Prefixes...)
	c.AllocatedFrom = maps.Clone(a.AllocatedFrom)
	return &c
}

// CloneDeep copies every policy structure scenario events can mutate:
// origin-side export decisions and the import override overlay. The
// generated import maps, aggregation sets and peer exclusions are shared
// (events replace them wholesale, never edit them in place).
func (p *Policy) CloneDeep() *Policy {
	cp := &Policy{AS: p.AS, Import: p.Import, Tagging: p.Tagging}
	cp.Export = ExportPolicy{
		OriginProviders:    make(map[netx.Prefix]map[bgp.ASN]bool, len(p.Export.OriginProviders)),
		NoUpstream:         make(map[netx.Prefix]bgp.ASN, len(p.Export.NoUpstream)),
		TransitSelective:   p.Export.TransitSelective,
		AggregateSpecifics: p.Export.AggregateSpecifics,
		PeerExclude:        p.Export.PeerExclude,
	}
	for prefix, set := range p.Export.OriginProviders {
		ns := make(map[bgp.ASN]bool, len(set))
		for a, v := range set {
			ns[a] = v
		}
		cp.Export.OriginProviders[prefix] = ns
	}
	for prefix, provider := range p.Export.NoUpstream {
		cp.Export.NoUpstream[prefix] = provider
	}
	if p.Override != nil {
		ov := &ImportOverride{}
		for nbr, v := range p.Override.Neighbor {
			ov.SetNeighbor(nbr, v)
		}
		for nbr, m := range p.Override.Prefix {
			for prefix, v := range m {
				ov.SetPrefix(nbr, prefix, v)
			}
		}
		cp.Override = ov
	}
	return cp
}

// EnsureOverride returns the policy's import-override overlay, creating
// it on first use.
func (p *Policy) EnsureOverride() *ImportOverride {
	if p.Override == nil {
		p.Override = &ImportOverride{}
	}
	return p.Override
}

// SetAnnounceToProvider edits the origin-side selective-announcement set
// of an originated prefix: announce=false withholds prefix from
// provider, announce=true (re-)announces it. The OriginProviders entry
// is kept canonical — it is dropped when the set covers every provider,
// matching the generator's "missing entry means announce to all".
func (t *Topology) SetAnnounceToProvider(origin bgp.ASN, prefix netx.Prefix, provider bgp.ASN, announce bool) {
	pol := t.Policies[origin]
	if pol == nil {
		pol = &Policy{AS: origin}
		t.Policies[origin] = pol
	}
	providers := t.Graph.Providers(origin)
	set, ok := pol.Export.OriginProviders[prefix]
	if !ok {
		set = make(map[bgp.ASN]bool, len(providers))
		for _, p := range providers {
			set[p] = true
		}
	}
	if announce {
		set[provider] = true
	} else {
		delete(set, provider)
	}
	all := true
	for _, p := range providers {
		if !set[p] {
			all = false
			break
		}
	}
	if pol.Export.OriginProviders == nil {
		pol.Export.OriginProviders = make(map[netx.Prefix]map[bgp.ASN]bool)
	}
	if all {
		delete(pol.Export.OriginProviders, prefix)
	} else {
		pol.Export.OriginProviders[prefix] = set
	}
}

// SetNoUpstream attaches (provider != 0) or clears (provider == 0) the
// scoped no-upstream community on an originated prefix.
func (t *Topology) SetNoUpstream(origin bgp.ASN, prefix netx.Prefix, provider bgp.ASN) {
	pol := t.Policies[origin]
	if pol == nil {
		pol = &Policy{AS: origin}
		t.Policies[origin] = pol
	}
	if pol.Export.NoUpstream == nil {
		pol.Export.NoUpstream = make(map[netx.Prefix]bgp.ASN)
	}
	if provider == 0 {
		delete(pol.Export.NoUpstream, prefix)
	} else {
		pol.Export.NoUpstream[prefix] = provider
	}
}

// RemovePrefix deletes an originated prefix from the topology: ownership,
// the origin's AS description, and any origin-side export state.
func (t *Topology) RemovePrefix(prefix netx.Prefix) bool {
	origin, ok := t.PrefixOrigin[prefix]
	if !ok {
		return false
	}
	delete(t.PrefixOrigin, prefix)
	if info := t.ASes[origin]; info != nil {
		for i, p := range info.Prefixes {
			if p == prefix {
				info.Prefixes = append(info.Prefixes[:i], info.Prefixes[i+1:]...)
				break
			}
		}
	}
	if pol := t.Policies[origin]; pol != nil {
		delete(pol.Export.OriginProviders, prefix)
		delete(pol.Export.NoUpstream, prefix)
	}
	return true
}

// AddPrefix (re-)originates prefix at origin. It fails when the prefix
// is already originated or the origin AS is unknown.
func (t *Topology) AddPrefix(prefix netx.Prefix, origin bgp.ASN) bool {
	if _, taken := t.PrefixOrigin[prefix]; taken {
		return false
	}
	info := t.ASes[origin]
	if info == nil {
		return false
	}
	t.PrefixOrigin[prefix] = origin
	info.Prefixes = append(info.Prefixes, prefix)
	netx.SortPrefixes(info.Prefixes)
	return true
}
