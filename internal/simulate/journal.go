package simulate

import (
	"sync"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
)

// Rollback journal. The sweep executor's dominant pattern is
// apply-scenario / emit / undo-scenario on a long-lived engine clone;
// before this journal existed the undo leg re-applied the inverse events
// and paid a full incremental pass. Checkpoint arms pre-image capture
// for the next Apply: every overwritten best-forest row, reach counter,
// unconverged mark and vantage-table entry is saved once, and link-event
// graph mutations record their inverses. Rollback then restores the
// exact pre-Apply state in time proportional to what the Apply touched.
//
// Journaling supports link-event batches (failures and restorations) —
// the scenario families that dominate sweeps. Batches with prefix or
// policy events mark the journal unsupported and Rollback reports false,
// telling the caller to fall back to its own strategy (the executor
// re-clones).

type journalRow struct {
	row    []int32
	shared bool
}

type journalEntry struct {
	vi     int
	prefix netx.Prefix
	snap   bgp.EntrySnapshot
}

type applyJournal struct {
	mu        sync.Mutex
	applied   bool
	supported bool
	// atomsStaleWas is the engine's pre-Apply atom-partition staleness,
	// restored on Rollback (the partition is exactly as valid at the
	// checkpoint as it was before).
	atomsStaleWas bool

	removed map[[2]int32]asgraph.Relationship // failed links to re-add (oriented like recon)
	added   [][2]int32                        // restored links to remove again

	rows      map[int]journalRow
	reach     map[int]int64
	unconvWas map[netx.Prefix]bool
	entries   []journalEntry
}

// Checkpoint arms pre-image journaling for the next Apply, so Rollback
// can restore the engine to this exact state. Only one checkpoint is
// live at a time; arming again replaces the previous one.
func (en *Engine) Checkpoint() {
	mCheckpoints.Inc()
	en.e.journal = &applyJournal{
		supported: true,
		rows:      make(map[int]journalRow),
		reach:     make(map[int]int64),
		unconvWas: make(map[netx.Prefix]bool),
	}
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
	if j == nil || !j.applied {
		return j != nil // armed but unused: still at the checkpoint
	}
	if !j.supported {
		mRollbackRefused.Inc()
		return false
	}
	mRollbacks.Inc()
	e.atomsStale = j.atomsStaleWas

	// Undo the graph mutations and refresh adjacency. The Apply un-shared
	// the graph, but a Clone taken since shares it again.
	if len(j.removed)+len(j.added) > 0 {
		en.ownGraph()
	}
	endpoints := make(map[int32]bool)
	for pair, rel := range j.removed {
		// rel is what pair[1] is to pair[0] (recon orientation).
		_ = e.topo.Graph.AddEdge(e.asns[pair[0]], e.asns[pair[1]], rel)
		endpoints[pair[0]] = true
		endpoints[pair[1]] = true
	}
	for _, pair := range j.added {
		e.topo.Graph.RemoveEdge(e.asns[pair[0]], e.asns[pair[1]])
		endpoints[pair[0]] = true
		endpoints[pair[1]] = true
	}
	if len(endpoints) > 0 {
		for i := range endpoints {
			e.rebuildAdjacency(i)
		}
		e.rebuildCSR()
	}

	// Restore forest rows, reach counters and unconverged marks.
	for pi, jr := range j.rows {
		e.track[pi] = jr.row
		if e.trackShared != nil {
			e.trackShared[pi] = jr.shared
		}
	}
	for pi, v := range j.reach {
		e.reachCounts[pi] = v
	}
	for p, was := range j.unconvWas {
		if was {
			en.unconv[p] = true
		} else {
			delete(en.unconv, p)
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

// recordLinks copies the recon link deltas (already oriented) into the
// journal.
func (j *applyJournal) recordLinks(rc *recon) {
	if j == nil || !j.supported {
		return
	}
	j.removed = make(map[[2]int32]asgraph.Relationship, len(rc.removed))
	for k, v := range rc.removed {
		j.removed[k] = v
	}
	for k := range rc.added {
		j.added = append(j.added, k)
	}
}

// rowPre records prefix pi's forest row and reach count before their
// first overwrite. Callers pass the current (pre-write) values; a shared
// row is referenced (its array is owned by a parent engine and never
// rewritten in place), an owned row is copied.
func (j *applyJournal) rowPre(pi int, row []int32, shared bool, reach int64) {
	if j == nil || !j.supported {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, done := j.rows[pi]; done {
		return
	}
	saved := row
	if !shared && row != nil {
		saved = append([]int32(nil), row...)
	}
	j.rows[pi] = journalRow{row: saved, shared: shared}
	j.reach[pi] = reach
}

// unconvPre records a prefix's pre-Apply unconverged membership. The
// caller serializes access to the unconverged set.
func (j *applyJournal) unconvPre(p netx.Prefix, was bool) {
	if j == nil || !j.supported {
		return
	}
	j.mu.Lock()
	if _, done := j.unconvWas[p]; !done {
		j.unconvWas[p] = was
	}
	j.mu.Unlock()
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
