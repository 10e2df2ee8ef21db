package simulate

import (
	"sync"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
)

// Rollback journal. The dominant pattern of the serving path — every
// what-if, every sweep scenario — is apply-scenario / emit / undo-scenario
// on a scratch engine that outlives the scenario (lease.go); before this
// journal existed the undo leg re-applied the inverse events and paid a
// full incremental pass. Checkpoint arms pre-image capture
// for the next Apply: every overwritten best-forest row, reach counter,
// unconverged mark and vantage-table entry is saved once, and link-event
// graph mutations record their inverses. Rollback then restores the
// exact pre-Apply state in time proportional to what the Apply touched.
//
// A forest row is never copied for the journal: the row as it stood
// becomes the pre-image and the Apply writes a copy (captureIncremental),
// in a buffer from the engine's free list. Rollback puts the pre-image
// back and hands the copy to the free list — the copy and nothing else:
// not the pre-image, and not a copy a Clone taken since the Apply still
// shares. The next scenario's copies reuse those buffers.
//
// Journaling supports link-event batches (failures and restorations) —
// the scenario families that dominate sweeps. Batches with prefix or
// policy events mark the journal unsupported and Rollback reports false,
// telling the caller to recover by other means (the lease drops the
// engine and clones the base for the next scenario). beginApply is the
// one place that decides which batches those are.

// journalRow is prefix pi's forest row and reach count before the Apply.
type journalRow struct {
	pi     int
	row    []int32
	shared bool
	reach  int64
}

type journalUnconv struct {
	prefix netx.Prefix
	was    bool
}

type journalEntry struct {
	vi     int
	prefix netx.Prefix
	snap   bgp.EntrySnapshot
}

// linkDelta is one link event as Apply carried it out: the pair in
// edgePair order and, for a failure, what pair[1] was to pair[0].
type linkDelta struct {
	pair     [2]int32
	rel      asgraph.Relationship
	restored bool
}

type applyJournal struct {
	mu        sync.Mutex
	applied   bool
	supported bool
	// atomsStaleWas is the engine's pre-Apply atom-partition staleness,
	// restored on Rollback (the partition is exactly as valid at the
	// checkpoint as it was before).
	atomsStaleWas bool

	links     []linkDelta // the batch's link events, in the order it applied them
	endpoints []int32     // their ends, ascending

	// rows and unconvWas are append-only: a journalable batch visits each
	// prefix once, so each pays for one entry, not for a map. rowSeen (a
	// bitset over the checkpointed prefix indices, which a journalable
	// batch cannot change) holds rows to that: a second pre-image of one
	// prefix is refused, the first stands.
	rows      []journalRow
	rowSeen   []uint64
	unconvWas []journalUnconv
	entries   []journalEntry
}

// Checkpoint arms pre-image journaling for the next Apply, so Rollback
// can restore the engine to this exact state. Only one checkpoint is
// live at a time; arming again replaces the previous one.
//
// A journal the last Rollback spent is armed again with its slices and
// bitset emptied, not reallocated: an engine that lives across scenarios
// (lease.go) journals in the buffers its largest batch grew.
func (en *Engine) Checkpoint() {
	mCheckpoints.Inc()
	e := en.e
	j := e.spent
	e.spent = nil
	if words := (len(e.prefixes) + 63) / 64; j == nil || len(j.rowSeen) != words {
		j = &applyJournal{rowSeen: make([]uint64, words)}
	} else {
		clear(j.rowSeen)
		j.rows, j.unconvWas, j.entries = j.rows[:0], j.unconvWas[:0], j.entries[:0]
		j.applied, j.links, j.endpoints = false, nil, nil
	}
	j.supported = true
	e.journal = j
}

// Rollback undoes the Apply performed since the last Checkpoint and
// reports whether the engine is back at the checkpointed state. It
// returns true when no Apply consumed the checkpoint (nothing to undo)
// and false when the applied batch was not journalable (prefix or
// policy events) — the engine is then in the post-Apply state and the
// caller must recover by other means.
func (en *Engine) Rollback() bool {
	e := en.e
	j := e.journal
	e.journal = nil
	if j == nil {
		return false
	}
	if !j.applied {
		e.spent = j
		return true // armed but unused: still at the checkpoint
	}
	if !j.supported {
		mRollbackRefused.Inc()
		return false
	}
	mRollbacks.Inc()
	e.spent = j
	en.scratch.Store(nil)
	e.atomsStale = j.atomsStaleWas

	// Undo the graph mutations and refresh adjacency. The Apply un-shared
	// the graph, but a Clone taken since shares it again.
	if len(j.endpoints) > 0 {
		en.ownGraph()
		// Last event first: a batch may fail and restore one pair, in
		// either order, and only the reverse walk ends at the state the
		// first event found.
		for i := len(j.links) - 1; i >= 0; i-- {
			l := j.links[i]
			a, b := e.asns[l.pair[0]], e.asns[l.pair[1]]
			if l.restored {
				e.topo.Graph.RemoveEdge(a, b)
			} else {
				// The edge was there before the event removed it, so
				// adding it back cannot be refused.
				_ = e.topo.Graph.AddEdge(a, b, l.rel)
			}
		}
		e.relink(j.endpoints)
	}

	// Restore forest rows and reach counters. What sits in e.track is the
	// copy the Apply wrote: it goes back to the free list unless a Clone
	// taken since marked it shared.
	for _, jr := range j.rows {
		if e.trackShared == nil || !e.trackShared[jr.pi] {
			e.rowFree = append(e.rowFree, e.track[jr.pi])
		}
		e.track[jr.pi] = jr.row
		if e.trackShared != nil {
			e.trackShared[jr.pi] = jr.shared
		}
		e.reachCounts[jr.pi] = jr.reach
	}
	for _, ju := range j.unconvWas {
		if ju.was {
			en.unconv[ju.prefix] = true
		} else {
			delete(en.unconv, ju.prefix)
		}
	}

	// Restore vantage-table entries.
	for _, je := range j.entries {
		slot := e.tables[je.vi]
		slot.mu.Lock()
		slot.writable().RestoreEntry(je.prefix, je.snap)
		slot.mu.Unlock()
	}
	return true
}

// beginApply marks the armed journal consumed and records whether the
// batch is journalable. A second Apply under the same checkpoint marks
// the journal unsupported: pre-images of the first batch would mix with
// link deltas of the second, so Rollback must refuse rather than
// restore a hybrid state.
func (j *applyJournal) beginApply(events []Event, atomsStaleWas bool) {
	if j == nil {
		return
	}
	if j.applied {
		j.supported = false
		return
	}
	j.applied = true
	j.atomsStaleWas = atomsStaleWas
	for _, ev := range events {
		if ev.Kind != EventLinkFail && ev.Kind != EventLinkRestore {
			j.supported = false
			return
		}
	}
}

// recordLinks hands the batch's link deltas to the journal (rc does not
// outlive the Apply, so the slices are the journal's from here on).
func (j *applyJournal) recordLinks(rc *recon) {
	if j == nil || !j.supported {
		return
	}
	j.links = rc.links
	j.endpoints = rc.endpoints
}

// rowPre makes prefix pi's forest row, as it stands before its first
// overwrite, the journal's pre-image, together with its reach count. It
// reports whether it did: the caller must then leave that array alone
// and write a copy. False means there is no armed journal, or pi already
// has a pre-image (the first one stands and the caller's row is already
// the copy).
func (j *applyJournal) rowPre(pi int, row []int32, shared bool, reach int64) bool {
	if j == nil || !j.supported {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	w, bit := pi>>6, uint64(1)<<(pi&63)
	if j.rowSeen[w]&bit != 0 {
		return false
	}
	j.rowSeen[w] |= bit
	j.rows = append(j.rows, journalRow{pi: pi, row: row, shared: shared, reach: reach})
	return true
}

// unconvPre records a prefix's unconverged membership before Apply
// changes it. Apply calls it only for prefixes whose membership does
// change, from one goroutine; a prefix already recorded keeps its first
// pre-image.
func (j *applyJournal) unconvPre(p netx.Prefix, was bool) {
	if j == nil || !j.supported {
		return
	}
	for _, ju := range j.unconvWas {
		if ju.prefix == p {
			return
		}
	}
	j.unconvWas = append(j.unconvWas, journalUnconv{prefix: p, was: was})
}

// entryPre journals a vantage table entry's pre-image. writableFor
// calls it on the batch's first write to the entry, holding the slot
// lock.
func (j *applyJournal) entryPre(vi int, prefix netx.Prefix, rib *bgp.RIB) {
	if j == nil || !j.supported {
		return
	}
	snap := rib.SnapshotEntry(prefix)
	j.mu.Lock()
	j.entries = append(j.entries, journalEntry{vi: vi, prefix: prefix, snap: snap})
	j.mu.Unlock()
}

// writableFor returns slot's RIB for a write to prefix's entry; every
// write an Apply makes to a vantage table goes through it, with
// slot.mu held. On the batch's first write to (vantage, prefix) it
// records the entry's pre-batch best route — always, whether or not a
// checkpoint is armed — and hands the full pre-image to the journal.
// Installed routes are immutable, so the pointer is the pre-image.
// Outside Apply (cold convergence) there is no batch to compare against
// and preBest is nil.
func (e *engine) writableFor(vi int, slot *tableSlot, prefix netx.Prefix) *bgp.RIB {
	if slot.preBest != nil {
		if _, seen := slot.preBest[prefix]; !seen {
			slot.preBest[prefix] = slot.rib.Best(prefix)
			e.journal.entryPre(vi, prefix, slot.rib)
		}
	}
	return slot.writable()
}

// beginBestChanges arms every vantage table's pre-batch best record for
// one Apply.
func (e *engine) beginBestChanges() {
	for _, slot := range e.tables {
		slot.preBest = make(map[netx.Prefix]*bgp.Route)
	}
}

// endBestChanges disarms the records and returns, per vantage AS, how
// many prefixes' best route the batch changed under bgp.RenderEqual —
// net over the whole batch: an entry rewritten back to what it held, or
// announced and withdrawn again, counts nothing — together with the
// number of entries the batch wrote. Every vantage AS has a key.
func (e *engine) endBestChanges() (changed map[bgp.ASN]int, written int) {
	changed = make(map[bgp.ASN]int, len(e.tables))
	for vi, slot := range e.tables {
		n := 0
		for prefix, was := range slot.preBest {
			if !bgp.RenderEqual(was, slot.rib.Best(prefix)) {
				n++
			}
		}
		changed[e.asns[vi]] = n
		written += len(slot.preBest)
		slot.preBest = nil
	}
	return changed, written
}
