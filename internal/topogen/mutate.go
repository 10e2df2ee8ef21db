package topogen

import (
	"maps"
	"slices"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
)

// Mutable topology views for the what-if scenario engine
// (internal/simulate). Clone produces an independent copy that scenario
// events — link failures, prefix withdrawals, policy edits — may mutate
// freely without disturbing the study's base topology.

// Clone returns a deep copy of the topology covering every structure a
// scenario event may mutate: the annotated graph, per-AS descriptions,
// prefix ownership and policies. What events never touch (generated
// import maps, aggregation sets, provider sets, allocation maps) is
// shared.
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

// Clone returns a copy of the AS description that prefix events may
// edit: Prefixes, which they edit in place, is copied (nil stays nil, and
// empty empty); AllocatedFrom, which nothing writes once the topology is
// generated, is shared.
func (a *ASInfo) Clone() *ASInfo {
	c := *a
	c.Prefixes = slices.Clone(a.Prefixes)
	return &c
}

// CloneDeep copies every policy map scenario events write: the
// origin-side export maps and the import override overlay, each nil
// where p's is nil. A what-if engine copies every Policy so at its first
// policy edit and then edits the copies in place. What events
// never write is shared: the generated import maps, the tagging scheme,
// aggregation sets, peer exclusions, and the provider sets
// OriginProviders maps to, which SetAnnounceToProvider replaces whole.
func (p *Policy) CloneDeep() *Policy {
	cp := &Policy{AS: p.AS, Import: p.Import, Tagging: p.Tagging}
	cp.Export = ExportPolicy{
		OriginProviders:    maps.Clone(p.Export.OriginProviders),
		NoUpstream:         maps.Clone(p.Export.NoUpstream),
		TransitSelective:   p.Export.TransitSelective,
		AggregateSpecifics: p.Export.AggregateSpecifics,
		PeerExclude:        p.Export.PeerExclude,
	}
	if p.Override != nil {
		ov := &ImportOverride{Neighbor: maps.Clone(p.Override.Neighbor)}
		if p.Override.Prefix != nil {
			ov.Prefix = make(map[bgp.ASN]map[netx.Prefix]uint32, len(p.Override.Prefix))
			for nbr, m := range p.Override.Prefix {
				ov.Prefix[nbr] = maps.Clone(m)
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
// matching the generator's "missing entry means announce to all". A set
// is replaced, never written in place, so whoever still holds the old one
// (a what-if engine's undo record) reads it as it was.
func (t *Topology) SetAnnounceToProvider(origin bgp.ASN, prefix netx.Prefix, provider bgp.ASN, announce bool) {
	pol := t.Policies[origin]
	if pol == nil {
		pol = &Policy{AS: origin}
		t.Policies[origin] = pol
	}
	providers := t.Graph.Providers(origin)
	set := make(map[bgp.ASN]bool, len(providers))
	if old, ok := pol.Export.OriginProviders[prefix]; ok {
		maps.Copy(set, old)
	} else {
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
// the origin's AS description, and any origin-side export state. The
// origin's Policy is written only where it holds an entry for the prefix
// (a delete writes a map even when the key is absent), so a what-if
// engine need not copy a Policy it shares to withdraw a prefix the
// Policy says nothing about.
func (t *Topology) RemovePrefix(prefix netx.Prefix) bool {
	origin, ok := t.PrefixOrigin[prefix]
	if !ok {
		return false
	}
	delete(t.PrefixOrigin, prefix)
	if info := t.ASes[origin]; info != nil {
		if i := slices.Index(info.Prefixes, prefix); i >= 0 {
			info.Prefixes = slices.Delete(info.Prefixes, i, i+1)
		}
	}
	if pol := t.Policies[origin]; pol != nil {
		if _, ok := pol.Export.OriginProviders[prefix]; ok {
			delete(pol.Export.OriginProviders, prefix)
		}
		if _, ok := pol.Export.NoUpstream[prefix]; ok {
			delete(pol.Export.NoUpstream, prefix)
		}
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
	// Prefixes stays in Compare order: insert where a binary search puts it.
	i, _ := slices.BinarySearchFunc(info.Prefixes, prefix, netx.Prefix.Compare)
	info.Prefixes = slices.Insert(info.Prefixes, i, prefix)
	return true
}
