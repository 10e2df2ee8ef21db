package simulate

import (
	"sync"
	"sync/atomic"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
)

// Rollback journal. The dominant pattern of the serving path — every
// what-if, every sweep scenario — is apply-scenario / emit / undo-scenario
// on a scratch engine that outlives the scenario (lease.go). Checkpoint
// arms an undo log; every mutation an Apply makes from then on, of any
// event kind, appends its inverse; Rollback replays the log last-first
// and the engine is index-for-index back at the checkpoint, in time
// proportional to what the Applies touched. There is no batch the journal
// does not take: a second Apply under one checkpoint appends to the same
// log.
//
// Why last-first and not "by kind": a record names its prefix by index,
// and a withdraw swap-removes a prefix while an announce appends one, so
// an index means what it meant only once every later record is undone.
// The order of e.prefixes is itself state — shifts reach Apply's unstable
// sort in it, so it decides the order of tied Delta.Shifts — and "the same
// set in another order" is not a restore.
//
// Nothing is copied for the journal that the Apply does not write. A
// forest row, a Policy and an AS description are each handed over as they
// stood: the original becomes the pre-image and the Apply writes a copy
// (captureIncremental, editPolicy, editInfo). Rollback puts the original
// back; a row copy goes to the engine's free list — the copy and nothing
// else: not the pre-image, and not a copy a Clone taken since the Apply
// still shares — and the next scenario's copies reuse those buffers. A
// vantage entry the table reads through to is held as the parent
// layer's pointer (bgp.RIB.SaveEntry), and Rollback deletes the Apply's
// own copy so the table reads through again; only an entry the table
// already owned, which it writes in place, is copied.
//
// What an Apply under a checkpoint writes is recycled by the same rule,
// carved from the engine's vantageArena. Into vantage tables: the routes
// it installs, their AS paths, each entry's neighbor and route lists and
// the entry itself (bgp.EntrySlot), and the copy a link failure's
// withdrawal makes of an entry the table reads through to
// (bgp.RIB.WithdrawInto). Into the adjacency: every neighbor,
// session-record and reverse-index row relink rebuilds, and the CSR
// offsets it publishes. Rollback removes every entry the Apply wrote and
// puts every replaced row and the old offsets back, so it rewinds the
// arena to where the checkpoint found it and the next scenario carves
// the same storage — unless a Clone was taken since the checkpoint: the
// clone reads the tables and the adjacency as the Apply left them, so
// the engine leaves that arena to it and makes a new one at its next
// Checkpoint. A route read out of a table after such an Apply is
// therefore valid until the Rollback, as a lease's Delta is (lease.go).
//
// Recycled offsets are safe although pooled worker states, shared by the
// whole engine family, alias the offsets of the engine they last synced
// to and may still alias a rewound table: every publishLayout draws a new
// process-global version and Rollback puts back the pre-Apply layout
// under its own, so no engine publishes a rewound table's version again,
// and syncAdjacency re-inits a state on a version mismatch before it
// reads any offset.
//
// The arena is a constant budget, sized to a typical scenario (550 KiB,
// see arenaRoutes); what does not fit is copied to the heap, as cold
// convergence and an Apply without a checkpoint copy everything, so an
// idle engine holds that budget and not the largest scenario it ran.

// undoKind says which stack of applyJournal a log entry's record is on;
// it is also the kind label of policyscope_journal_undo_records_total.
type undoKind uint8

const (
	undoRow undoKind = iota
	undoEntry
	undoLink
	undoPolicy
	undoPrefix
	numUndoKinds
)

// journalRow is prefix pi's forest row and reach count before the Apply.
type journalRow struct {
	pi     int
	row    []int32
	shared bool
	reach  int64
}

type journalEntry struct {
	vi     int
	prefix netx.Prefix
	pre    bgp.EntryImage
}

// linkDelta is one link event as Apply carried it out: the pair in
// edgePair order and, for a failure, what pair[1] was to pair[0].
type linkDelta struct {
	pair     [2]int32
	rel      asgraph.Relationship
	restored bool
}

// journalPolicy is AS i's Policy before the Apply's first edit to it; nil
// for an AS that had none.
type journalPolicy struct {
	i   int32
	pol *topogen.Policy
}

type prefixOp uint8

const (
	// prefixMark: the prefix entered or left the unconverged set.
	prefixMark prefixOp = iota
	prefixWithdrawn
	prefixAnnounced
)

// journalPrefix is one edit to the prefix bookkeeping. unconv is the
// prefix's unconverged mark before it. A withdrawal and an announcement
// also hold the origin and its AS description as it stood; a withdrawal,
// where the prefix sat in the index and what sat there with it.
type journalPrefix struct {
	op     prefixOp
	prefix netx.Prefix
	unconv bool
	origin bgp.ASN
	info   *topogen.ASInfo
	pi     int
	row    []int32
	shared bool
	reach  int64
}

type applyJournal struct {
	mu      sync.Mutex
	applied bool
	// atomsStaleWas is the engine's atom-partition staleness before the
	// first Apply, restored on Rollback (the partition is exactly as valid
	// at the checkpoint as it was before).
	atomsStaleWas bool

	// log is the order the records were made in; each kind's records sit
	// on a stack of their own, so replaying log last-first pops them in
	// step. Records made by concurrent workers (rows, entries) commute:
	// within one Apply they name distinct prefixes.
	log      []undoKind
	rows     []journalRow
	entries  []journalEntry
	links    []linkDelta
	policies []journalPolicy
	prefixes []journalPrefix

	// adj holds the adjacency rows relink replaced, and csrOff/adjVersion
	// the layout the first relink under the checkpoint replaced (nil: no
	// relink yet). They are derived from the graph, so they go back once
	// the link records are undone, in any order but last-first among
	// themselves.
	adj        []journalAdj
	csrOff     []int32
	adjVersion uint64

	// arenaAt is how far the engine's vantage arena was carved at the
	// checkpoint, and clones how many Clones the engine had taken then.
	arenaAt arenaMark
	clones  uint64
}

// The vantage arena's budget: room for arenaRoutes routes, eight AS
// numbers a route (its AS path and its share of entry neighbor lists),
// four route pointers (entry route lists) and two entries — a capture
// writes one, and a link failure's withdrawal copies more, each with its
// lists — plus the adjacency one relink rewrites: arenaInts int32s (CSR
// offsets, neighbor and reverse-index rows) and arenaSessions session
// records. That is 176 + 64 + 64 + 224 KiB for the vantage writes and
// 16 + 6 KiB for the adjacency: 550 KiB an engine. On the paper preset
// all of a scenario fits for every hijack, 1,335 of the 1,339 link
// failures and 1,041 of the 1,064 local-preference flips of the
// eight best-connected ASes, and every relink fits (at most 2,583 int32s
// and 219 records).
const (
	arenaRoutes   = 2048
	arenaASNs     = 8 * arenaRoutes
	arenaLists    = 4 * arenaRoutes
	arenaEntries  = 2 * arenaRoutes
	arenaInts     = 4096
	arenaSessions = 512
)

// vantageArena is the storage an Apply under a checkpoint carves its
// vantage-table writes and its relinked adjacency from; Rollback rewinds
// it. Workers capture concurrently, so each slab is carved by an atomic
// bump.
type vantageArena struct {
	routes  slab[bgp.Route]
	asns    slab[bgp.ASN]
	lists   slab[*bgp.Route]
	entries slab[bgp.EntrySlot]
	ints    slab[int32]
	sess    slab[session]
}

// arenaMark is how far each slab of a vantageArena is carved.
type arenaMark [6]int64

// slab is one fixed array carved front to back. used may run past the
// end: a take that does not fit fails, and so does every later one until
// a rewind.
type slab[T any] struct {
	buf  []T
	used atomic.Int64
}

// take returns the next n elements, with capacity n, or nil when fewer
// than n are left.
func (s *slab[T]) take(n int) []T {
	end := s.used.Add(int64(n))
	if end > int64(len(s.buf)) {
		return nil
	}
	return s.buf[end-int64(n) : end : end]
}

// one returns the next element, or nil when none is left.
func (s *slab[T]) one() *T {
	if b := s.take(1); b != nil {
		return &b[0]
	}
	return nil
}

// rewind hands back everything carved past at, cleared so the arena pins
// nothing a rolled-back scenario pointed to.
func (s *slab[T]) rewind(at int64) {
	n := int64(len(s.buf))
	clear(s.buf[min(at, n):min(s.used.Load(), n)])
	s.used.Store(at)
}

func newVantageArena() *vantageArena {
	va := new(vantageArena)
	va.routes.buf = make([]bgp.Route, arenaRoutes)
	va.asns.buf = make([]bgp.ASN, arenaASNs)
	va.lists.buf = make([]*bgp.Route, arenaLists)
	va.entries.buf = make([]bgp.EntrySlot, arenaEntries)
	va.ints.buf = make([]int32, arenaInts)
	va.sess.buf = make([]session, arenaSessions)
	return va
}

func (va *vantageArena) mark() arenaMark {
	return arenaMark{va.routes.used.Load(), va.asns.used.Load(), va.lists.used.Load(),
		va.entries.used.Load(), va.ints.used.Load(), va.sess.used.Load()}
}

func (va *vantageArena) rewind(at arenaMark) {
	va.routes.rewind(at[0])
	va.asns.rewind(at[1])
	va.lists.rewind(at[2])
	va.entries.rewind(at[3])
	va.ints.rewind(at[4])
	va.sess.rewind(at[5])
}

// carving returns the arena an Apply under a checkpoint carves from; nil
// outside one, which copies to the heap.
func (e *engine) carving() *vantageArena {
	if e.applying && e.journal != nil {
		return e.arena
	}
	return nil
}

// route and entry return an element carved from va, or nil when va is
// nil (no checkpoint is armed) or out of them.
func (va *vantageArena) route() *bgp.Route {
	if va == nil {
		return nil
	}
	return va.routes.one()
}

func (va *vantageArena) entry() *bgp.EntrySlot {
	if va == nil {
		return nil
	}
	return va.entries.one()
}

// asnList and routeList return a copy of src carved from va, or on the
// heap when va is nil or full; an empty src copies to nil.
func (va *vantageArena) asnList(src []bgp.ASN) []bgp.ASN {
	var dst []bgp.ASN
	if va != nil && len(src) > 0 {
		dst = va.asns.take(len(src))
	}
	return copyInto(dst, src)
}

func (va *vantageArena) routeList(src []*bgp.Route) []*bgp.Route {
	var dst []*bgp.Route
	if va != nil && len(src) > 0 {
		dst = va.lists.take(len(src))
	}
	return copyInto(dst, src)
}

// copyInto copies src into dst, made on the heap when nil.
func copyInto[T any](dst, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	if dst == nil {
		dst = make([]T, len(src))
	}
	copy(dst, src)
	return dst
}

// entryStorage is the storage a withdrawal's copy of a read-through entry
// with n candidates is written into (bgp.RIB.WithdrawInto): what va has
// room for, nil for the rest, which the table allocates.
func (va *vantageArena) entryStorage(n int) (*bgp.EntrySlot, []bgp.ASN, []*bgp.Route) {
	if va == nil {
		return nil, nil, nil
	}
	return va.entries.one(), va.asns.take(n), va.lists.take(n)
}

// int32s and sessions return n zeroed elements for relink to fill,
// carved from va, or made on the heap when va is nil or full.
func (va *vantageArena) int32s(n int) []int32 {
	if va == nil {
		return make([]int32, n)
	}
	return orMake(va.ints.take(n), n)
}

func (va *vantageArena) sessions(n int) []session {
	if va == nil {
		return make([]session, n)
	}
	return orMake(va.sess.take(n), n)
}

// orMake returns b, or n elements made on the heap when b is nil.
func orMake[T any](b []T, n int) []T {
	if b == nil {
		return make([]T, n)
	}
	return b
}

// journalAdj is AS i's adjacency before a relink: neighbor, session-record
// and reverse-index rows. relink replaces these slices and never writes
// them — published layouts are never written in place — so they are the
// pre-image as they stand. A row an earlier relink under the same
// checkpoint carved from the arena is such a pre-image too: the arena
// rewinds only after every row is back.
type journalAdj struct {
	i    int32
	nbrs []int32
	sess []session
	back []int32
}

// Checkpoint arms the undo log, so Rollback can restore the engine to
// this exact state. Only one checkpoint is live at a time; arming again
// replaces the previous one.
//
// A journal the last Rollback spent is empty and is armed again as it
// is: an engine that lives across scenarios (lease.go) journals in the
// buffers its largest batch grew, and carves in the vantage arena the
// last Rollback rewound (Checkpoint makes one when there is none).
func (en *Engine) Checkpoint() {
	mCheckpoints.Inc()
	e := en.e
	j := e.spent
	e.spent = nil
	if j == nil {
		j = new(applyJournal)
	}
	if e.arena == nil {
		e.arena = newVantageArena()
	}
	j.arenaAt, j.clones = e.arena.mark(), e.clones
	e.journal = j
}

// Rollback undoes every Apply performed since the last Checkpoint and
// reports whether the engine is back at the checkpointed state: false
// only when no checkpoint was armed, in which case nothing was undone.
// Rollback reuses the storage of the routes and entries those Applies
// wrote into vantage tables and of the adjacency they relinked, so a
// route read out of the engine's tables in between is valid until
// Rollback returns — unless a Clone was taken in between, which keeps
// them all.
func (en *Engine) Rollback() bool {
	e := en.e
	j := e.journal
	if j == nil {
		return false
	}
	e.journal = nil
	e.spent = j
	if !j.applied {
		return true // armed but unused: still at the checkpoint
	}
	j.applied = false
	mRollbacks.Inc()
	en.scratch.Store(nil)
	e.atomsStale = j.atomsStaleWas
	var undone [numUndoKinds]uint64
	for k := len(j.log) - 1; k >= 0; k-- {
		kind := j.log[k]
		undone[kind]++
		switch kind {
		case undoRow:
			en.undoRow(pop(&j.rows))
		case undoEntry:
			en.undoEntry(pop(&j.entries))
		case undoLink:
			en.undoLink(pop(&j.links))
		case undoPolicy:
			en.undoPolicy(pop(&j.policies))
		case undoPrefix:
			en.undoPrefix(pop(&j.prefixes))
		}
	}
	for kind, n := range undone {
		mUndoRecords[kind].Add(n)
	}
	j.log = j.log[:0]
	for len(j.adj) > 0 {
		ja := pop(&j.adj)
		e.nbrs[ja.i], e.sess[ja.i], e.back[ja.i] = ja.nbrs, ja.sess, ja.back
	}
	if j.csrOff != nil {
		// The pre-Apply layout under its own version: a pooled worker
		// state still synced to it needs no re-size.
		e.csrOff, e.adjVersion = j.csrOff, j.adjVersion
		j.csrOff = nil
	}
	// Every entry the Apply wrote is out of the tables, so what it carved
	// is free — unless a Clone reads it.
	if e.clones == j.clones {
		e.arena.rewind(j.arenaAt)
	} else {
		e.arena = nil
	}
	return true
}

// pop removes and returns the top of a record stack, zeroing the slot so
// the spent journal pins no pre-image.
func pop[T any](stack *[]T) T {
	s := *stack
	n := len(s) - 1
	top := s[n]
	var zero T
	s[n] = zero
	*stack = s[:n]
	return top
}

// undoRow puts a forest row's pre-image back. What sits in e.track is the
// copy the Apply wrote: it goes to the free list unless a Clone taken
// since marked it shared.
func (en *Engine) undoRow(jr journalRow) {
	e := en.e
	e.freeRow(jr.pi)
	e.track[jr.pi] = jr.row
	if e.trackShared != nil {
		e.trackShared[jr.pi] = jr.shared
	}
	e.reachCounts[jr.pi] = jr.reach
}

// freeRow hands prefix pi's row buffer to the free list when nothing else
// can be reading it.
func (e *engine) freeRow(pi int) {
	if row := e.track[pi]; row != nil && (e.trackShared == nil || !e.trackShared[pi]) {
		e.rowFree = append(e.rowFree, row)
	}
}

// undoEntry puts a vantage entry's pre-image back. An entry the table
// read through to goes back by deleting the Apply's own copy, so the
// table reads through again; only when a Clone taken since has flattened
// the layers is it copied. pop has zeroed the record, so the pre-image
// is restored once.
func (en *Engine) undoEntry(je journalEntry) {
	slot := en.e.tables[je.vi]
	slot.mu.Lock()
	slot.writable().RevertEntry(je.prefix, je.pre)
	slot.mu.Unlock()
}

// undoLink reverses one link event in the graph; Rollback puts the
// adjacency relink derived from it back once every one of them is undone.
// The Apply un-shared the graph, but a Clone taken since shares it again.
func (en *Engine) undoLink(l linkDelta) {
	en.ownGraph()
	a, b := en.e.asns[l.pair[0]], en.e.asns[l.pair[1]]
	if l.restored {
		en.topo.Graph.RemoveEdge(a, b)
	} else {
		// The edge was there before the event removed it, so adding it
		// back cannot be refused.
		_ = en.topo.Graph.AddEdge(a, b, l.rel)
	}
}

func (en *Engine) undoPolicy(jp journalPolicy) {
	en.ownPolicies()
	asn := en.e.asns[jp.i]
	if jp.pol == nil {
		delete(en.topo.Policies, asn)
	} else {
		en.topo.Policies[asn] = jp.pol
	}
	en.e.pols[jp.i] = jp.pol
}

func (en *Engine) undoPrefix(jp journalPrefix) {
	e := en.e
	switch jp.op {
	case prefixWithdrawn:
		en.ownPrefixMaps()
		en.topo.PrefixOrigin[jp.prefix] = jp.origin
		en.topo.ASes[jp.origin] = jp.info
		e.indexPrefixAt(jp.pi, jp.prefix, jp.row, jp.shared, jp.reach)
	case prefixAnnounced:
		// Every later record is undone, so the prefix is the last one
		// indexed again and leaving moves nobody.
		en.ownPrefixMaps()
		delete(en.topo.PrefixOrigin, jp.prefix)
		en.topo.ASes[jp.origin] = jp.info
		e.freeRow(len(e.prefixes) - 1)
		e.unindexPrefix(jp.prefix)
	}
	if jp.unconv {
		en.unconv[jp.prefix] = true
	} else {
		delete(en.unconv, jp.prefix)
	}
}

// beginApply marks the armed journal consumed; the first Apply under a
// checkpoint records the staleness Rollback restores.
func (j *applyJournal) beginApply(atomsStaleWas bool) {
	if j == nil || j.applied {
		return
	}
	j.applied = true
	j.atomsStaleWas = atomsStaleWas
}

// rowPre makes prefix pi's forest row, as it stands, the journal's
// pre-image, together with its reach count. It reports whether it did:
// the caller must then leave that array alone and write a copy. False
// means there is no armed journal.
func (j *applyJournal) rowPre(pi int, row []int32, shared bool, reach int64) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	j.rows = append(j.rows, journalRow{pi: pi, row: row, shared: shared, reach: reach})
	j.log = append(j.log, undoRow)
	j.mu.Unlock()
	return true
}

// entryPre journals a vantage table entry's pre-image. writableFor
// calls it on each Apply's first write to the entry, holding the slot
// lock.
func (j *applyJournal) entryPre(vi int, prefix netx.Prefix, rib *bgp.RIB) {
	if j == nil {
		return
	}
	pre := rib.SaveEntry(prefix)
	j.mu.Lock()
	j.entries = append(j.entries, journalEntry{vi: vi, prefix: prefix, pre: pre})
	j.log = append(j.log, undoEntry)
	j.mu.Unlock()
}

// linkDone, policyPre and prefixDone record the edits Apply makes from
// its own goroutine, in the order it makes them.
func (j *applyJournal) linkDone(l linkDelta) {
	if j != nil {
		j.links = append(j.links, l)
		j.log = append(j.log, undoLink)
	}
}

// relinkPre records what relink is about to replace: the adjacency of
// every AS in stale, and the CSR layout with its version (the first
// relink's only).
func (j *applyJournal) relinkPre(e *engine, stale []int32) {
	if j == nil {
		return
	}
	if j.csrOff == nil {
		j.csrOff, j.adjVersion = e.csrOff, e.adjVersion
	}
	for _, u := range stale {
		j.adj = append(j.adj, journalAdj{i: u, nbrs: e.nbrs[u], sess: e.sess[u], back: e.back[u]})
	}
}

func (j *applyJournal) policyPre(i int32, pol *topogen.Policy) {
	if j != nil {
		j.policies = append(j.policies, journalPolicy{i: i, pol: pol})
		j.log = append(j.log, undoPolicy)
	}
}

func (j *applyJournal) prefixDone(jp journalPrefix) {
	if j != nil {
		j.prefixes = append(j.prefixes, jp)
		j.log = append(j.log, undoPrefix)
	}
}

// writableFor returns slot's RIB for a write to prefix's entry; every
// write an Apply makes to a vantage table goes through it, with
// slot.mu held. On the batch's first write to (vantage, prefix) it
// records the entry's pre-batch best route — always, whether or not a
// checkpoint is armed — and hands the full pre-image to the journal.
// Installed routes are immutable, so the pointer is the pre-image. The
// table is un-shared first, so a just-layered table's entries are
// journaled as read-through references, not copied out of the layer it
// retired. Outside Apply (cold convergence) there is no batch to compare
// against and nothing is recorded.
func (e *engine) writableFor(vi int, slot *tableSlot, prefix netx.Prefix) *bgp.RIB {
	rib := slot.writable()
	if e.applying {
		if _, seen := slot.preBest[prefix]; !seen {
			slot.preBest[prefix] = rib.Best(prefix)
			e.journal.entryPre(vi, prefix, rib)
		}
	}
	return rib
}

// beginBestChanges arms every vantage table's pre-batch best record for
// one Apply. The maps are the engine's for life: emptied after each
// Apply, not made again for the next.
func (e *engine) beginBestChanges() {
	for _, slot := range e.tables {
		if slot.preBest == nil {
			slot.preBest = make(map[netx.Prefix]*bgp.Route)
		}
	}
	e.applying = true
}

// endBestChanges disarms the records and returns, per vantage AS, how
// many prefixes' best route the batch changed under bgp.RenderEqual —
// net over the whole batch: an entry rewritten back to what it held, or
// announced and withdrawn again, counts nothing — together with the
// number of entries the batch wrote. Every vantage AS has a key. The
// counts go into changed, emptied first, or a new map when it is nil.
func (e *engine) endBestChanges(changed map[bgp.ASN]int) (map[bgp.ASN]int, int) {
	e.applying = false
	if changed == nil {
		changed = make(map[bgp.ASN]int, len(e.tables))
	}
	clear(changed)
	written := 0
	for vi, slot := range e.tables {
		n := 0
		for prefix, was := range slot.preBest {
			if !bgp.RenderEqual(was, slot.rib.Best(prefix)) {
				n++
			}
		}
		changed[e.asns[vi]] = n
		written += len(slot.preBest)
		clear(slot.preBest)
	}
	return changed, written
}

// disarmBestChanges empties the records of an Apply that returned before
// endBestChanges read them; after endBestChanges it does nothing.
func (e *engine) disarmBestChanges() {
	if !e.applying {
		return
	}
	e.applying = false
	for _, slot := range e.tables {
		clear(slot.preBest)
	}
}
