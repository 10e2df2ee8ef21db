package simulate

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
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
// forest row is handed over as it stood: the original becomes the
// pre-image, the Apply writes a copy (captureIncremental), and Rollback
// puts the original back. A Policy or an AS description is edited in
// place, on the engine's own copy, one record per entry written
// (edit.go). A vantage entry the table reads through to is held as
// the parent layer's pointer (bgp.RIB.SaveEntry), and Rollback deletes
// the Apply's own copy so the table reads through again; only an entry
// the table already owned, which it writes in place, is copied.
//
// What an Apply under a checkpoint writes is carved from the engine's
// region: the routes, AS paths, neighbor and route lists and entries
// (bgp.EntrySlot) it writes into vantage tables, a link failure's copies
// of entries the table reads through to (bgp.RIB.WithdrawInto), the
// forest rows it rewrites or an announced prefix gets, and every
// adjacency row and CSR offset table relink rebuilds. Rollback takes all
// of it out of the engine and rewinds the region to where the checkpoint
// found it, so the next scenario carves the same storage — unless a Clone
// was taken since: the clone reads what the Apply wrote, so the engine
// leaves it the region and starts a new one (recycle). A route read out
// of a table after such an Apply is therefore valid until the Rollback,
// as a lease's Delta is (lease.go). Cold convergence and an Apply
// without a checkpoint copy to the heap.
//
// Recycled offsets are safe although pooled worker states, shared by the
// whole engine family, alias the offsets of the engine they last synced
// to and may still alias a rewound table: every publishLayout draws a new
// process-global version and Rollback puts back the pre-Apply layout
// under its own, so no engine publishes a rewound table's version again,
// and syncAdjacency re-inits a state on a version mismatch before it
// reads any offset.

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

type prefixOp uint8

const (
	// prefixMark: the prefix entered or left the unconverged set.
	prefixMark prefixOp = iota
	prefixWithdrawn
	prefixAnnounced
)

// journalPrefix is one edit to the prefix bookkeeping. unconv is the
// prefix's unconverged mark before it. A withdrawal also holds the
// origin, where the prefix sat in the index and what sat there with it.
type journalPrefix struct {
	op     prefixOp
	prefix netx.Prefix
	unconv bool
	origin bgp.ASN
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
	policies []policyEdit
	prefixes []journalPrefix

	// adj holds the adjacency rows relink replaced, and csrOff/adjVersion
	// the layout the first relink under the checkpoint replaced (nil: no
	// relink yet). They are derived from the graph, so they go back once
	// the link records are undone, in any order but last-first among
	// themselves.
	adj        []journalAdj
	csrOff     []int32
	adjVersion uint64

	// regionAt is how far the engine's region was carved at the
	// checkpoint, and clones how many Clones the engine had taken then.
	regionAt regionMark
	clones   uint64
}

// regionCap is the most a rewind leaves a region. It is above what the
// largest paper-preset scenarios carve of every type (DESIGN §3), so a
// warm engine carves each of them without allocating.
const regionCap = 6 << 20

// chunkBytes is the size of a chunk, unless one take needs more.
const chunkBytes = 64 << 10

// region is the storage an Apply under a checkpoint carves what it
// writes from: chunks per element type, made as takes need them, none up
// front. Concurrent workers carve by an atomic bump in the current chunk;
// a take that does not fit locks and moves to the next chunk.
type region struct {
	mu      sync.Mutex
	held    atomic.Int64 // bytes in every chunk
	routes  chunks[bgp.Route]
	asns    chunks[bgp.ASN]
	lists   chunks[*bgp.Route]
	entries chunks[bgp.EntrySlot]
	ints    chunks[int32] // forest rows, adjacency rows, CSR offsets
	sess    chunks[session]
}

// regionMark is, per type, the chunk a region is carved to and how far.
type regionMark [6]struct{ at, used int64 }

type chunkList interface {
	mark() (at, used int64)
	rewind(at, used int64, r *region)
}

func (r *region) parts() [6]chunkList {
	return [6]chunkList{&r.routes, &r.asns, &r.lists, &r.entries, &r.ints, &r.sess}
}

// chunks is one element type's storage; all[at] is the current chunk.
type chunks[T any] struct {
	cur atomic.Pointer[chunk[T]]
	all []*chunk[T] // written under the region's mu
	at  int64
}

// chunk is one array carved front to back; used runs past its end after
// a take that did not fit.
type chunk[T any] struct {
	buf  []T
	used atomic.Int64
}

func sizeOf[T any]() int64 {
	var v T
	return int64(unsafe.Sizeof(v))
}

// take returns the next n elements, with capacity n, for the caller to
// write whole: they are zeroed only if T holds a pointer (rewind).
func (c *chunks[T]) take(r *region, n int) []T {
	for {
		k := c.cur.Load()
		if k != nil {
			if end := k.used.Add(int64(n)); end <= int64(len(k.buf)) {
				return k.buf[end-int64(n) : end : end]
			}
		}
		r.mu.Lock()
		if c.cur.Load() == k { // no other take moved on first
			if k != nil {
				c.at++
			}
			if c.at == int64(len(c.all)) || len(c.all[c.at].buf) < n {
				size := max(n, int(chunkBytes/sizeOf[T]()))
				c.all = slices.Insert(c.all, int(c.at), &chunk[T]{buf: make([]T, size)})
				r.held.Add(int64(size) * sizeOf[T]())
			}
			c.cur.Store(c.all[c.at])
		}
		r.mu.Unlock()
	}
}

func (c *chunks[T]) mark() (at, used int64) {
	if k := c.cur.Load(); k != nil {
		return c.at, k.used.Load()
	}
	return 0, 0
}

// rewind hands back everything carved past the mark, clearing what can
// hold a pointer so that the region pins nothing of a rolled-back
// scenario, and drops the chunks past the mark's, last first, while r
// holds more than regionCap.
func (c *chunks[T]) rewind(at, used int64, r *region) {
	if len(c.all) == 0 {
		return
	}
	var scrub bool
	switch any((*T)(nil)).(type) {
	case *bgp.Route, **bgp.Route, *bgp.EntrySlot:
		scrub = true
	}
	for i := at; i <= c.at; i++ {
		k, from := c.all[i], int64(0)
		if i == at {
			from = used
		}
		if scrub {
			clear(k.buf[from:min(k.used.Load(), int64(len(k.buf)))])
		}
		k.used.Store(from)
	}
	c.at = at
	c.cur.Store(c.all[at])
	for r.held.Load() > regionCap && int64(len(c.all)) > at+1 {
		r.held.Add(-int64(len(pop(&c.all).buf)) * sizeOf[T]())
	}
}

// recycle is the region's one rule, run by Rollback once nothing the
// Applies carved is in the engine: rewind to the checkpoint's mark —
// unless a Clone taken since reads what they carved, which leaves it the
// region.
func (e *engine) recycle(j *applyJournal) {
	if e.clones != j.clones {
		e.region = nil
		return
	}
	for i, c := range e.region.parts() {
		c.rewind(j.regionAt[i].at, j.regionAt[i].used, e.region)
	}
}

// RegionBytes reports what the engine's region holds: the storage its
// Applies under a checkpoint carve from, kept up to a constant cap.
func (en *Engine) RegionBytes() int64 {
	if r := en.e.region; r != nil {
		return r.held.Load()
	}
	return 0
}

// carving returns the region an Apply under a checkpoint carves from;
// nil outside one, which copies to the heap.
func (e *engine) carving() *region {
	if e.applying && e.journal != nil {
		return e.region
	}
	return nil
}

// route returns a route to fill, carved from r or made on the heap when r
// is nil; entry likewise, nil for the table to make.
func (r *region) route() *bgp.Route {
	if r == nil {
		return new(bgp.Route)
	}
	return &r.routes.take(r, 1)[0]
}

func (r *region) entry() *bgp.EntrySlot {
	if r == nil {
		return nil
	}
	return &r.entries.take(r, 1)[0]
}

// asnList and routeList return a copy of src carved from r, or made on
// the heap when r is nil; an empty src copies to nil.
func (r *region) asnList(src []bgp.ASN) []bgp.ASN {
	var dst []bgp.ASN
	if r != nil && len(src) > 0 {
		dst = r.asns.take(r, len(src))
	}
	return copyInto(dst, src)
}

func (r *region) routeList(src []*bgp.Route) []*bgp.Route {
	var dst []*bgp.Route
	if r != nil && len(src) > 0 {
		dst = r.lists.take(r, len(src))
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
// with n candidates is written into (bgp.RIB.WithdrawInto): carved from
// r, or nil for the table to make when r is nil.
func (r *region) entryStorage(n int) (*bgp.EntrySlot, []bgp.ASN, []*bgp.Route) {
	if r == nil {
		return nil, nil, nil
	}
	return r.entry(), r.asns.take(r, n), r.lists.take(r, n)
}

// int32s and sessions return n elements for the caller to write whole —
// a forest row, an adjacency row, CSR offsets — carved from r, or made on
// the heap when r is nil.
func (r *region) int32s(n int) []int32 {
	if r == nil {
		return make([]int32, n)
	}
	return r.ints.take(r, n)
}

func (r *region) sessions(n int) []session {
	if r == nil {
		return make([]session, n)
	}
	return r.sess.take(r, n)
}

// journalAdj is AS i's adjacency before a relink: neighbor, session-record
// and reverse-index rows. relink replaces these slices and never writes
// them — published layouts are never written in place — so they are the
// pre-image as they stand. A row an earlier relink under the same
// checkpoint carved from the region is such a pre-image too: the region
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
// buffers its largest batch grew, and carves in the region the last
// Rollback rewound (Checkpoint makes an empty one when there is none).
func (en *Engine) Checkpoint() {
	mCheckpoints.Inc()
	e := en.e
	j := e.spent
	e.spent = nil
	if j == nil {
		j = new(applyJournal)
	}
	if e.region == nil {
		e.region = new(region)
	}
	for i, c := range e.region.parts() {
		j.regionAt[i].at, j.regionAt[i].used = c.mark()
	}
	j.clones = e.clones
	e.journal = j
}

// Rollback undoes every Apply performed since the last Checkpoint and
// reports whether the engine is back at the checkpointed state: false
// only when no checkpoint was armed, in which case nothing was undone.
// Rollback reuses the storage of the routes and entries those Applies
// wrote into vantage tables, of the forest rows they rewrote and of the
// adjacency they relinked, so a route read out of the engine's tables in
// between is valid until Rollback returns — unless a Clone was taken in
// between, which keeps them all.
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
			en.undoEdit(pop(&j.policies))
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
	e.recycle(j)
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

// undoRow puts a forest row's pre-image back over the copy the Apply
// carved, which the region recycles.
func (en *Engine) undoRow(jr journalRow) {
	e := en.e
	e.track[jr.pi] = jr.row
	if e.trackShared != nil {
		e.trackShared[jr.pi] = jr.shared
	}
	e.reachCounts[jr.pi] = jr.reach
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

func (en *Engine) undoPrefix(jp journalPrefix) {
	e := en.e
	switch jp.op {
	case prefixWithdrawn:
		en.ownPrefixMaps()
		en.topo.PrefixOrigin[jp.prefix] = jp.origin
		e.indexPrefixAt(jp.pi, jp.prefix, jp.row, jp.shared, jp.reach)
	case prefixAnnounced:
		// Every later record is undone, so the prefix is the last one
		// indexed again and leaving moves nobody.
		en.ownPrefixMaps()
		delete(en.topo.PrefixOrigin, jp.prefix)
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

// linkDone, edited and prefixDone record the edits Apply makes from its
// own goroutine, in the order it makes them.
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

func (j *applyJournal) edited(ed policyEdit) {
	if j != nil {
		j.policies = append(j.policies, ed)
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
