package simulate

import (
	"slices"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
)

// Policy and description edits. A withdraw, announce or policy event
// writes a map entry or two of an AS's Policy or description. The engine
// writes them in place, on a copy of its own (ownPolicies,
// ownPrefixMaps), and journals one record per entry: the entry as it
// stood. Rollback replays
// the records last-first like every other, and reconstruction reads an
// edited entry's pre-event value from the Apply's own records (recon.pre)
// instead of from a pre-event copy of the Policy, which no longer exists.

// editField names the entry a policyEdit record holds.
type editField uint8

const (
	editNeighborLP editField = iota // Override.Neighbor[nbr]
	editPrefixLP                    // Override.Prefix[nbr][prefix]
	editProviders                   // Export.OriginProviders[prefix]
	editNoUpstream                  // Export.NoUpstream[prefix]
	editPrefixes                    // ASInfo.Prefixes[at], which is prefix
)

// madeFlags are the containers an edit made to hold its entry, which its
// undo takes away again: nil and empty are not the same state.
type madeFlags uint8

const (
	madePolicy     madeFlags = 1 << iota // the AS had no Policy
	madeOverride                         // Policy.Override
	madeNeighborLP                       // Override.Neighbor
	madePrefixLP                         // Override.Prefix
	madePrefixRow                        // Override.Prefix[nbr]
	madeProviders                        // Export.OriginProviders
	madeNoUpstream                       // Export.NoUpstream
	madePrefixes                         // ASInfo.Prefixes
)

// made returns flag when cond holds.
func made(cond bool, flag madeFlags) madeFlags {
	if cond {
		return flag
	}
	return 0
}

// policyEdit is one entry an Apply wrote in AS i's Policy or description,
// as the entry stood before: had says whether it was there, and lp, asn,
// set or at what it held.
type policyEdit struct {
	i      int32
	field  editField
	made   madeFlags
	had    bool
	nbr    bgp.ASN
	prefix netx.Prefix
	lp     uint32           // an Override entry's preference
	asn    bgp.ASN          // a NoUpstream entry's provider
	set    map[bgp.ASN]bool // an OriginProviders entry's set, never written in place
	at     int              // where prefix sits in, or was inserted into, Prefixes
}

// editTopology carries out a withdraw, announce or policy event: it
// journals every Policy and description entry the event writes and
// writes it in place, on the engine's own copy.
func (en *Engine) editTopology(rc *recon, ev Event) error {
	e := en.e
	switch ev.Kind {
	case EventWithdraw:
		origin := en.topo.PrefixOrigin[ev.Prefix]
		i := int32(e.idx[origin])
		// The Policy is written only where it has an entry for the prefix.
		if pol := e.pols[i]; pol != nil {
			if set, ok := pol.Export.OriginProviders[ev.Prefix]; ok {
				en.ownPolicies()
				en.record(rc, policyEdit{i: i, field: editProviders, had: true, prefix: ev.Prefix, set: set})
			}
			if asn, ok := pol.Export.NoUpstream[ev.Prefix]; ok {
				en.ownPolicies()
				en.record(rc, policyEdit{i: i, field: editNoUpstream, had: true, prefix: ev.Prefix, asn: asn})
			}
		}
		en.ownPrefixMaps()
		if info := en.topo.ASes[origin]; info != nil {
			if at, ok := slices.BinarySearchFunc(info.Prefixes, ev.Prefix, netx.Prefix.Compare); ok {
				en.record(rc, policyEdit{i: i, field: editPrefixes, had: true, prefix: ev.Prefix, at: at})
			}
		}
	case EventAnnounce:
		i := int32(e.idx[ev.Origin])
		en.ownPrefixMaps()
		info := en.topo.ASes[ev.Origin]
		if info == nil {
			break // topogen refuses it below
		}
		wasNil := info.Prefixes == nil
		if _, err := applyEventToTopology(en.topo, ev); err != nil {
			return err
		}
		at, _ := slices.BinarySearchFunc(info.Prefixes, ev.Prefix, netx.Prefix.Compare)
		en.record(rc, policyEdit{i: i, field: editPrefixes, made: made(wasNil, madePrefixes), prefix: ev.Prefix, at: at})
		return nil
	case EventLocalPref:
		i := int32(e.idx[ev.AS])
		pol, ed := en.editPolicy(i)
		ed.nbr = ev.Neighbor
		var ov topogen.ImportOverride
		if pol.Override != nil {
			ov = *pol.Override
		} else {
			ed.made |= madeOverride
		}
		if ev.PerPrefix {
			row := ov.Prefix[ev.Neighbor]
			ed.field, ed.prefix = editPrefixLP, ev.Prefix
			ed.made |= made(ov.Prefix == nil, madePrefixLP) | made(row == nil, madePrefixRow)
			ed.lp, ed.had = row[ev.Prefix]
		} else {
			ed.field = editNeighborLP
			ed.made |= made(ov.Neighbor == nil, madeNeighborLP)
			ed.lp, ed.had = ov.Neighbor[ev.Neighbor]
		}
		en.record(rc, ed)
	case EventSAToggle:
		pol, ed := en.editPolicy(int32(e.idx[en.topo.PrefixOrigin[ev.Prefix]]))
		ed.field, ed.prefix = editProviders, ev.Prefix
		ed.made |= made(pol.Export.OriginProviders == nil, madeProviders)
		ed.set, ed.had = pol.Export.OriginProviders[ev.Prefix]
		en.record(rc, ed)
	case EventNoUpstream:
		pol, ed := en.editPolicy(int32(e.idx[en.topo.PrefixOrigin[ev.Prefix]]))
		ed.field, ed.prefix = editNoUpstream, ev.Prefix
		ed.made |= made(pol.Export.NoUpstream == nil, madeNoUpstream)
		ed.asn, ed.had = pol.Export.NoUpstream[ev.Prefix]
		en.record(rc, ed)
	}
	_, err := applyEventToTopology(en.topo, ev)
	return err
}

// editPolicy returns AS i's Policy for a policy event to write, growing
// an empty one of the engine's own for an AS without one, and the
// event's record begun.
func (en *Engine) editPolicy(i int32) (*topogen.Policy, policyEdit) {
	ed := policyEdit{i: i}
	en.ownPolicies()
	pol := en.e.pols[i]
	if pol == nil {
		pol = &topogen.Policy{AS: en.e.asns[i]}
		en.topo.Policies[pol.AS], en.e.pols[i] = pol, pol
		ed.made = madePolicy
	}
	return pol, ed
}

// record journals ed, and keeps a policy entry's for the Apply's
// reconstruction.
func (en *Engine) record(rc *recon, ed policyEdit) {
	if ed.field != editPrefixes {
		rc.edits = append(rc.edits, ed)
	}
	en.e.journal.edited(ed)
}

// undoEdit puts one entry back as its record holds it, and takes away
// the containers the edit made. A Clone taken since the Apply shares the
// Policies or descriptions again, so they are copied first.
func (en *Engine) undoEdit(ed policyEdit) {
	if ed.field == editPrefixes {
		en.ownPrefixMaps()
		info := en.topo.ASes[en.e.asns[ed.i]]
		if ed.had {
			info.Prefixes = slices.Insert(info.Prefixes, ed.at, ed.prefix)
		} else {
			info.Prefixes = slices.Delete(info.Prefixes, ed.at, ed.at+1)
		}
		if ed.made&madePrefixes != 0 {
			info.Prefixes = nil
		}
		return
	}
	en.ownPolicies()
	pol := en.e.pols[ed.i]
	switch ed.field {
	case editNeighborLP:
		restore(pol.Override.Neighbor, ed.nbr, ed.lp, ed.had)
	case editPrefixLP:
		restore(pol.Override.Prefix[ed.nbr], ed.prefix, ed.lp, ed.had)
	case editProviders:
		restore(pol.Export.OriginProviders, ed.prefix, ed.set, ed.had)
	case editNoUpstream:
		restore(pol.Export.NoUpstream, ed.prefix, ed.asn, ed.had)
	}
	if ed.made&madePrefixRow != 0 {
		delete(pol.Override.Prefix, ed.nbr)
	}
	if ed.made&madePrefixLP != 0 {
		pol.Override.Prefix = nil
	}
	if ed.made&madeNeighborLP != 0 {
		pol.Override.Neighbor = nil
	}
	if ed.made&madeOverride != 0 {
		pol.Override = nil
	}
	if ed.made&madeProviders != 0 {
		pol.Export.OriginProviders = nil
	}
	if ed.made&madeNoUpstream != 0 {
		pol.Export.NoUpstream = nil
	}
	if ed.made&madePolicy != 0 {
		delete(en.topo.Policies, pol.AS)
		en.e.pols[ed.i] = nil
	}
}

// restore puts k's entry in m back: v, or none when had is false.
func restore[K comparable, V any](m map[K]V, k K, v V, had bool) {
	if had {
		m[k] = v
	} else {
		delete(m, k)
	}
}

// pre returns the Apply's first record of AS i's entry field[nbr][prefix]
// — the one holding the entry as it stood before the Apply — or nil when
// the Apply did not write it. A Policy record's nbr or prefix that the
// field has no use for is zero.
func (rc *recon) pre(i int32, field editField, nbr bgp.ASN, prefix netx.Prefix) *policyEdit {
	for k := range rc.edits {
		if ed := &rc.edits[k]; ed.i == i && ed.field == field && ed.nbr == nbr && ed.prefix == prefix {
			return ed
		}
	}
	return nil
}

// Only three reads of a Policy can differ between the pre-event view and
// the Policy as the Apply left it, and reconstruction makes them here:
// whether the origin announces the prefix to a provider (exportOld),
// which provider its own route is tagged no-upstream to (noUpstreamOld),
// and the Override — whether there was one, and its preference for a
// route (overrideOld). Nothing else of a Policy is ever written.

// exportOld is exportAllowed under u's pre-event Policy. Its one read an
// edit can change is Export.OriginProviders[prefix], made for the
// origin's own route to a provider; exportAllowed reads nothing else of
// the Policy there, so the entry's pre-image decides in its place.
func (pr *prefixRecon) exportOld(u, v int32, relVtoU, ingress asgraph.Relationship, best *bgp.Route) bool {
	e := pr.rc.e
	pol := e.pols[u]
	if best.IsLocal() && relVtoU == asgraph.RelProvider {
		if ed := pr.rc.pre(u, editProviders, 0, pr.prefix); ed != nil {
			if ed.had && !ed.set[e.asns[v]] {
				return false
			}
			pol = nil
		}
	}
	return exportAllowed(e.asns[u], e.asns[v], relVtoU, ingress, best, pr.prefix, pol)
}

// buildOld is buildAnnouncement under u's and v's pre-event Policies.
func (pr *prefixRecon) buildOld(u, v, vslot int32, relVtoU asgraph.Relationship, best *bgp.Route) *bgp.Route {
	e := pr.rc.e
	to, tagsTo := pr.noUpstreamOld(u, best)
	lp, tag, tagged := pr.importOld(u, v, vslot, relVtoU)
	return e.announcement(u, v, best, pr.prefix, tagsTo && to == e.asns[v], lp, tag, tagged, pr.st)
}

// noUpstreamOld returns the provider u's pre-event Policy tags its own
// route for the prefix to, if any.
func (pr *prefixRecon) noUpstreamOld(u int32, best *bgp.Route) (bgp.ASN, bool) {
	if !best.IsLocal() {
		return 0, false
	}
	if ed := pr.rc.pre(u, editNoUpstream, 0, pr.prefix); ed != nil {
		return ed.asn, ed.had
	}
	if pol := pr.rc.e.pols[u]; pol != nil {
		to, ok := pol.Export.NoUpstream[pr.prefix]
		return to, ok
	}
	return 0, false
}

// importOld is importAt under v's pre-event Policy: where the Apply
// edited v's Override, the import rules price the route as if there were
// none, and the Override as it stood — if it stood at all — answers first.
func (pr *prefixRecon) importOld(u, v, vslot int32, relVtoU asgraph.Relationship) (uint32, bgp.Community, bool) {
	e := pr.rc.e
	pol := e.pols[v]
	lpOld, ok, edited := pr.rc.overrideOld(v, e.asns[u], pr.prefix)
	if !edited {
		return e.importAt(u, v, vslot, relVtoU, pol, pr.prefix)
	}
	bare := *pol
	bare.Override = nil
	lp, tag, tagged := e.importAt(u, v, vslot, relVtoU, &bare, pr.prefix)
	if ok && !e.opts.IgnoreImportPolicy {
		lp = lpOld
	}
	return lp, tag, tagged
}

// overrideOld is topogen.ImportOverride.LocalPref on v's pre-event
// Override for a route for prefix from neighbor n; edited is false when
// the Apply wrote no entry of v's Override, which then stands as it was.
func (rc *recon) overrideOld(v int32, n bgp.ASN, prefix netx.Prefix) (lp uint32, ok, edited bool) {
	var first *policyEdit
	for k := range rc.edits {
		if ed := &rc.edits[k]; ed.i == v && (ed.field == editNeighborLP || ed.field == editPrefixLP) {
			first = ed
			break
		}
	}
	switch {
	case first == nil:
		return 0, false, false
	case first.made&(madePolicy|madeOverride) != 0:
		return 0, false, true // there was no Override
	}
	ov := rc.e.pols[v].Override
	if ed := rc.pre(v, editPrefixLP, n, prefix); ed != nil {
		if ed.had {
			return ed.lp, true, true
		}
	} else if lp, ok := ov.Prefix[n][prefix]; ok {
		return lp, true, true
	}
	if ed := rc.pre(v, editNeighborLP, n, netx.Prefix{}); ed != nil {
		return ed.lp, ed.had, true
	}
	lp, ok = ov.Neighbor[n]
	return lp, ok, true
}
