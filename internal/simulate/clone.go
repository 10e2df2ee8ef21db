package simulate

import (
	"maps"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
)

// Clone returns an independent engine over the same converged state,
// sharing everything an Apply might rewrite copy-on-write: the per-prefix
// best forest (4 bytes per (prefix, AS) pair), the vantage RIBs, the
// topology's graph, policies, AS descriptions and prefix ownership, and
// the prefix index all stay shared until one side's Apply edits them (see
// topoShare and DESIGN.md §3). Only slice headers, the reach counters and
// the unconverged set are copied eagerly — O(ASes + prefixes) words —
// which makes a clone orders of magnitude cheaper than NewEngine, which
// re-simulates the world.
//
// Clone must not overlap with Apply on the receiver (the usual Engine
// contract), but any number of Clone calls may run concurrently on a
// quiescent engine. A caller that wants a private engine to compound
// scenarios on (Study.WhatIfEngine) clones; one that answers independent
// scenarios against a pristine base — a query session's what-ifs, a
// sweep's workers — goes through Scratch (lease.go), which clones only
// when no engine it lent out before came back clean.
func (en *Engine) Clone() *Engine {
	en.cloneMu.Lock()
	defer en.cloneMu.Unlock()
	e := en.e
	e.clones++

	// Mark the parent's rows, tables and topology shared so a later Apply
	// on the parent copies before writing instead of corrupting live
	// clones.
	if e.trackShared == nil {
		e.trackShared = make([]bool, len(e.track))
	}
	for i := range e.trackShared {
		e.trackShared[i] = true
	}
	for _, slot := range e.tables {
		slot.mu.Lock()
		slot.shared = true
		slot.mu.Unlock()
	}
	en.shared = topoShare{graph: true, prefixes: true, policies: true}

	// A private Topology value whose component pointers alias the
	// parent's until unshare replaces them.
	topo := *en.topo
	ce := &engine{
		topo: &topo,
		opts: e.opts,
		// Immutable after construction: share.
		idx:     e.idx,
		asns:    e.asns,
		vantage: e.vantage,
		depth:   e.depth,
		budget:  e.budget,
		// The atom partition is immutable; staleness is tracked per
		// engine (the clone goes stale on its own Applies).
		atoms:      e.atoms,
		atomsStale: e.atomsStale,
		// Outer slices copied; inner neighbor and session slices are
		// shared because rebuildAdjacency replaces them wholesale, and
		// the CSR offset table is shared because publishLayout publishes
		// a fresh slice instead of rewriting (relink does the same for
		// the reverse-index rows it recomputes); the parent's rollback
		// never recycles storage a Clone taken since its checkpoint can
		// read (journal.go). The state pool and intern
		// table are shared across the whole engine family: worker
		// states warmed on the parent serve the clones directly (the
		// clone inherits the parent's adjVersion, so warm states match
		// without a re-size), and attribute interning stays global.
		statePool:   e.statePool,
		intern:      e.intern,
		csrOff:      e.csrOff,
		back:        append([][]int32(nil), e.back...),
		adjVersion:  e.adjVersion,
		nbrs:        append([][]int32(nil), e.nbrs...),
		sess:        append([][]session(nil), e.sess...),
		pols:        append([]*topogen.Policy(nil), e.pols...),
		prefixes:    append([]netx.Prefix(nil), e.prefixes...),
		reachCounts: append([]int64(nil), e.reachCounts...),
		prefixIdx:   e.prefixIdx,
		track:       append([][]int32(nil), e.track...),
		trackShared: append([]bool(nil), e.trackShared...),
		tables:      make(map[int]*tableSlot, len(e.tables)),
	}
	for i, slot := range e.tables {
		ce.tables[i] = &tableSlot{rib: slot.rib, shared: true}
	}
	return &Engine{e: ce, topo: &topo, opts: en.opts, unconv: maps.Clone(en.unconv), shared: en.shared}
}

// topoShare records which topology components an engine still shares
// with its clone family and must copy before writing. The zero value
// shares nothing (NewEngine owns a deep copy); Clone sets every flag on
// both sides.
type topoShare struct {
	graph bool
	// prefixes covers Topology.PrefixOrigin, the Topology.ASes map and
	// every description in it, and the engine's prefix index; policies
	// covers the Topology.Policies map and every Policy in it.
	prefixes, policies bool
}

// Every mutation point of an Apply, and of the Rollback that undoes it,
// goes through one of the functions below just before it writes, so the
// rest of the world stays shared with the clone family: the graph for
// link events, the Policies for policy events, prefix ownership, the
// descriptions and the prefix index for prefix events. Once an engine
// owns a Policy or a description it edits it in place, one journaled
// entry at a time (edit.go), and keeps it until a Clone shares it again.

func (en *Engine) ownGraph() {
	if en.shared.graph {
		en.topo.Graph = en.topo.Graph.Clone()
		en.shared.graph = false
		mCowTopology.Inc()
	}
}

// ownPolicies copies the Policies map and every Policy in it at once: a
// copy taken one AS at a time, amid a sweep's short-lived garbage, keeps
// a span in use per copy long after the garbage is gone.
func (en *Engine) ownPolicies() {
	if en.shared.policies {
		e := en.e
		pols := make(map[bgp.ASN]*topogen.Policy, len(en.topo.Policies))
		for asn, pol := range en.topo.Policies {
			pols[asn] = pol.CloneDeep()
		}
		for i, asn := range e.asns {
			e.pols[i] = pols[asn]
		}
		en.topo.Policies = pols
		en.shared.policies = false
		mCowTopology.Inc()
	}
}

// ownPrefixMaps does the same for prefix ownership, the descriptions and
// the prefix index.
func (en *Engine) ownPrefixMaps() {
	if en.shared.prefixes {
		en.topo.PrefixOrigin = maps.Clone(en.topo.PrefixOrigin)
		infos := make(map[bgp.ASN]*topogen.ASInfo, len(en.topo.ASes))
		for asn, info := range en.topo.ASes {
			infos[asn] = info.Clone()
		}
		en.topo.ASes = infos
		en.e.prefixIdx = maps.Clone(en.e.prefixIdx)
		en.shared.prefixes = false
		mCowTopology.Inc()
	}
}
