package simulate

import (
	"slices"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
)

// The allocation-lean scratch structures of the propagation hot loop: a
// flat CSR candidate store aligned with the engine's adjacency (replacing
// the per-AS map[int32]*bgp.Route of the original engine), chunked arenas
// for the per-hop Route and Path values (replacing a heap allocation per
// announcement), and the pooled per-prefix worker state that ties them
// together. Candidate order is implicit — the adjacency is sorted by AS
// index, which equals ascending ASN — so the deterministic tie-break needs
// no per-reselect sort.

// exCand is an overflow candidate: a route held from a neighbor that is
// no longer (or not yet) in the engine's adjacency — sessions over links
// the current event batch removed. The overflow list stays sorted by
// neighbor index.
type exCand struct {
	u int32
	r *bgp.Route
}

// candStore holds per-AS candidate routes in slots parallel to the
// engine's CSR adjacency, with a rare sorted overflow per AS.
type candStore struct {
	off   []int32 // len = n+1, CSR offsets into slots (copied from engine)
	slots []*bgp.Route
	extra [][]exCand
	count []int32
}

func (cs *candStore) init(off []int32, n int) {
	cs.off = off
	total := int(off[n])
	if cap(cs.slots) < total {
		cs.slots = make([]*bgp.Route, total)
	} else {
		cs.slots = cs.slots[:total]
	}
	if cs.extra == nil || len(cs.extra) < n {
		cs.extra = make([][]exCand, n)
	}
	if cs.count == nil || len(cs.count) < n {
		cs.count = make([]int32, n)
	}
}

// clear resets one AS's candidates (called from workerState.touch, so
// every AS is cleared at most once per prefix).
func (cs *candStore) clear(v int32) {
	s := cs.slots[cs.off[v]:cs.off[v+1]]
	for i := range s {
		s[i] = nil
	}
	cs.extra[v] = cs.extra[v][:0]
	cs.count[v] = 0
}

// slotOf returns the slot index of neighbor u in v's adjacency, or -1
// when u is not adjacent to v (binary search over the sorted list).
func slotOf(nbrs []int32, u int32) int {
	if i, ok := slices.BinarySearch(nbrs, u); ok {
		return i
	}
	return -1
}

func (cs *candStore) get(nbrs []int32, v, u int32) *bgp.Route {
	if j := slotOf(nbrs, u); j >= 0 {
		return cs.slots[cs.off[v]+int32(j)]
	}
	for _, ex := range cs.extra[v] {
		if ex.u == u {
			return ex.r
		}
	}
	return nil
}

func (cs *candStore) set(nbrs []int32, v, u int32, r *bgp.Route) {
	if j := slotOf(nbrs, u); j >= 0 {
		i := cs.off[v] + int32(j)
		if cs.slots[i] == nil {
			cs.count[v]++
		}
		cs.slots[i] = r
		return
	}
	ex := cs.extra[v]
	pos := len(ex)
	for i, c := range ex {
		if c.u == u {
			ex[i].r = r
			return
		}
		if c.u > u {
			pos = i
			break
		}
	}
	ex = append(ex, exCand{})
	copy(ex[pos+1:], ex[pos:])
	ex[pos] = exCand{u: u, r: r}
	cs.extra[v] = ex
	cs.count[v]++
}

// del removes v's candidate from u, reporting whether one was present.
func (cs *candStore) del(nbrs []int32, v, u int32) bool {
	if j := slotOf(nbrs, u); j >= 0 {
		i := cs.off[v] + int32(j)
		if cs.slots[i] == nil {
			return false
		}
		cs.slots[i] = nil
		cs.count[v]--
		return true
	}
	ex := cs.extra[v]
	for i, c := range ex {
		if c.u == u {
			cs.extra[v] = append(ex[:i], ex[i+1:]...)
			cs.count[v]--
			return true
		}
	}
	return false
}

// at / setAt / delAt are the hot-path accessors for a candidate whose
// slot position in v's adjacency is already known (the engine's reverse
// index supplies it), skipping the binary search.
func (cs *candStore) at(v, slot int32) *bgp.Route { return cs.slots[cs.off[v]+slot] }

func (cs *candStore) setAt(v, slot int32, r *bgp.Route) {
	i := cs.off[v] + slot
	if cs.slots[i] == nil {
		cs.count[v]++
	}
	cs.slots[i] = r
}

func (cs *candStore) delAt(v, slot int32) bool {
	i := cs.off[v] + slot
	if cs.slots[i] == nil {
		return false
	}
	cs.slots[i] = nil
	cs.count[v]--
	return true
}

// each calls fn for every candidate of v in ascending neighbor-index
// order, merging adjacency slots with the overflow list.
func (cs *candStore) each(nbrs []int32, v int32, fn func(u int32, r *bgp.Route)) {
	base := cs.off[v]
	ex := cs.extra[v]
	if len(ex) == 0 {
		for j, r := range cs.slots[base:cs.off[v+1]] {
			if r != nil {
				fn(nbrs[j], r)
			}
		}
		return
	}
	xi := 0
	for j, r := range cs.slots[base:cs.off[v+1]] {
		if r == nil {
			continue
		}
		for xi < len(ex) && ex[xi].u < nbrs[j] {
			fn(ex[xi].u, ex[xi].r)
			xi++
		}
		fn(nbrs[j], r)
	}
	for ; xi < len(ex); xi++ {
		fn(ex[xi].u, ex[xi].r)
	}
}

// routeArena hands out Route values from chunked blocks. Everything it
// returns is invalid after reset; routes that outlive the per-prefix
// scratch (vantage-table entries) must be deep-copied out first.
type routeArena struct {
	blocks [][]bgp.Route
	bi     int
	used   int
}

const routeArenaBlock = 1024

func (a *routeArena) alloc() *bgp.Route {
	if a.bi >= len(a.blocks) {
		a.blocks = append(a.blocks, make([]bgp.Route, routeArenaBlock))
	}
	blk := a.blocks[a.bi]
	if a.used >= len(blk) {
		a.bi++
		a.used = 0
		if a.bi >= len(a.blocks) {
			a.blocks = append(a.blocks, make([]bgp.Route, routeArenaBlock))
		}
		blk = a.blocks[a.bi]
	}
	r := &blk[a.used]
	a.used++
	return r
}

func (a *routeArena) reset() { a.bi, a.used = 0, 0 }

// pathArena carves AS-path storage from chunked blocks, so the per-hop
// path prepend shares one growing buffer instead of allocating a slice
// per announcement. Paths are invalid after reset (capture clones the
// escaping ones).
type pathArena struct {
	blocks [][]bgp.ASN
	bi     int
	used   int
}

const pathArenaBlock = 8192

// prepend returns asn+tail carved from the arena.
func (a *pathArena) prepend(asn bgp.ASN, tail bgp.Path) bgp.Path {
	need := len(tail) + 1
	for {
		if a.bi >= len(a.blocks) {
			size := pathArenaBlock
			if need > size {
				size = need
			}
			a.blocks = append(a.blocks, make([]bgp.ASN, size))
		}
		blk := a.blocks[a.bi]
		if a.used+need <= len(blk) {
			p := blk[a.used : a.used+need : a.used+need]
			a.used += need
			p[0] = asn
			copy(p[1:], tail)
			return bgp.Path(p)
		}
		a.bi++
		a.used = 0
	}
}

func (a *pathArena) reset() { a.bi, a.used = 0, 0 }

// workerState is the reusable per-prefix scratch space. States are pooled
// on the engine (sync.Pool) so repeated Apply calls — the sweep fleet's
// pattern — do not reallocate the per-AS arrays every time.
type workerState struct {
	adjVersion uint64 // engine adjacency version the CSR layout matches
	version    uint32
	// curPrefix / originIdx identify the prefix the state currently
	// converges. curPrefix is authoritative — Route values borrowed from
	// an atom representative may carry the representative's Prefix.
	curPrefix netx.Prefix
	originIdx int32
	seen      []uint32
	best      []*bgp.Route
	bestFrom  []int32 // as-index best was learned from; own index = local; trackNone = none
	inQueue   []bool
	queue     []int32
	qhead     int
	touched   []int32
	cs        candStore
	routes    routeArena
	paths     pathArena

	// memoRoute / memoSeen back prefixRecon's pre-event route memo
	// (version-stamped like seen), so reconstruction allocates no map.
	memoRoute []*bgp.Route
	memoSeen  []uint32

	// deferred lists the sessions whose changed candidate left an
	// unmaterialized AS's best alone (see prefixRecon.update), chained per
	// AS: deferHead[v] — valid when deferSeen[v] carries the current
	// version — indexes v's most recent entry, next the one before it. A
	// late materialization of v replays its chain.
	deferred  []deferredSession
	deferHead []int32
	deferSeen []uint32

	// capture scratch: neighbor/route accumulation for an installed entry,
	// and the vantage ASes of one incremental capture's shift.
	capNbrs    []bgp.ASN
	capRoutes  []*bgp.Route
	capVantage []bgp.ASN

	// commCache is the worker's lock-free L1 over the engine's shared
	// intern table: the hot loop attaches the same relationship tags to
	// the same inherited sets over and over, and every
	// bgp.Communities.Add allocates. L1 misses fall through to the
	// shared bgp.Intern (L2, set by getState), which canonicalizes
	// across workers, engine clones, and the study-cache decoder, so
	// the whole engine family converges on one allocation per distinct
	// set. Interned sets are immutable heap values, safe to escape into
	// vantage tables; the L1 survives across prefixes on the pooled
	// state.
	commCache map[string]bgp.Communities
	commKey   []byte
	intern    *bgp.Intern

	// statActivations accumulates drained activations since the state
	// was pulled from the pool — a plain int so the activation loops
	// never touch an atomic; putState flushes it to the process counter.
	statActivations int
	// statKept / statRecycled / statPersisted count the routes captures
	// kept as installed, carved from an engine's region or copied to the
	// heap, flushed the same way.
	statKept, statRecycled, statPersisted int
}

// deferredSession is one remembered (v, u) session: the candidate v holds
// from u changed while v stayed unmaterialized.
type deferredSession struct {
	u    int32
	next int32 // previous entry of the same v, -1 at the end of its chain
}

// deferSession remembers that the candidate v holds from u changed.
func (st *workerState) deferSession(v, u int32) {
	next := int32(-1)
	if st.deferSeen[v] == st.version {
		next = st.deferHead[v]
	}
	st.deferSeen[v] = st.version
	st.deferHead[v] = int32(len(st.deferred))
	st.deferred = append(st.deferred, deferredSession{u: u, next: next})
}

// addCommunity returns cs+c, memoized through st's intern cache when a
// worker state is available; equivalent to cs.Add(c).
func addCommunity(st *workerState, cs bgp.Communities, c bgp.Community) bgp.Communities {
	if st == nil {
		return cs.Add(c)
	}
	return st.internAddCommunity(cs, c)
}

func (st *workerState) internAddCommunity(cs bgp.Communities, c bgp.Community) bgp.Communities {
	if cs.Has(c) {
		return cs
	}
	// The derivation key is cs's canonical bytes
	// (bgp.AppendCommunitiesKey) with c's appended: every key decomposes
	// uniquely into (cs, c) — the last 4 bytes are c, the rest cs — so a
	// hit always returns exactly cs.Add(c). On a miss the result is
	// first interned under its own canonical (sorted) key, the one the
	// study-cache decoder uses, so every derivation of the same set —
	// across workers, clones, and decode — lands on one allocation.
	k := bgp.AppendCommunitiesKey(st.commKey[:0], cs)
	k = append(k, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
	st.commKey = k
	if r, ok := st.commCache[string(k)]; ok {
		return r
	}
	r, ok := st.intern.LookupCommunities(k)
	if !ok {
		r = cs.Add(c)
		canon := bgp.AppendCommunitiesKey(nil, r)
		if prev, found := st.intern.LookupCommunities(canon); found {
			r = prev
		} else {
			r = st.intern.InternCommunities(canon, r)
		}
		r = st.intern.InternCommunities(k, r)
	}
	if st.commCache == nil {
		st.commCache = make(map[string]bgp.Communities)
	}
	st.commCache[string(k)] = r
	return r
}

func newWorkerState(e *engine) *workerState {
	n := len(e.asns)
	st := &workerState{
		adjVersion: e.adjVersion,
		seen:       make([]uint32, n),
		best:       make([]*bgp.Route, n),
		bestFrom:   make([]int32, n),
		inQueue:    make([]bool, n),
		memoRoute:  make([]*bgp.Route, n),
		memoSeen:   make([]uint32, n),
		deferHead:  make([]int32, n),
		deferSeen:  make([]uint32, n),
	}
	st.cs.init(e.csrOff, n)
	return st
}

// syncAdjacency rebuilds the CSR layout after the engine's adjacency
// changed (link events between pool uses).
func (st *workerState) syncAdjacency(e *engine) {
	if st.adjVersion == e.adjVersion {
		return
	}
	st.cs.init(e.csrOff, len(e.asns))
	st.adjVersion = e.adjVersion
}

func (st *workerState) reset() {
	st.version++
	if st.version == 0 { // uint32 wrap: re-seed the version stamps
		for i := range st.seen {
			st.seen[i] = 0
			st.memoSeen[i] = 0
			st.deferSeen[i] = 0
		}
		st.version = 1
	}
	st.queue = st.queue[:0]
	st.qhead = 0
	st.touched = st.touched[:0]
	st.deferred = st.deferred[:0]
	st.routes.reset()
	st.paths.reset()
}

func (st *workerState) touch(i int32) {
	if st.seen[i] != st.version {
		st.seen[i] = st.version
		st.cs.clear(i)
		st.best[i] = nil
		st.bestFrom[i] = trackNone
		st.inQueue[i] = false
		st.touched = append(st.touched, i)
	}
}

func (st *workerState) push(i int32) {
	if !st.inQueue[i] {
		st.inQueue[i] = true
		st.queue = append(st.queue, i)
	}
}

// pop returns the next queued AS (FIFO) or -1.
func (st *workerState) pop() int32 {
	if st.qhead >= len(st.queue) {
		return -1
	}
	u := st.queue[st.qhead]
	st.qhead++
	if st.qhead == len(st.queue) {
		st.queue = st.queue[:0]
		st.qhead = 0
	}
	return u
}

// getState pulls a worker state from the engine's pool (or builds one)
// and synchronizes it with the current adjacency and intern table. The
// pool is shared across engine clones, so a pulled state may have been
// warmed elsewhere in the family; re-pointing the intern is cheap and
// the adjacency sync keys off the globally unique version.
func (e *engine) getState() *workerState {
	if v := e.statePool.Get(); v != nil {
		st := v.(*workerState)
		st.syncAdjacency(e)
		st.intern = e.intern
		mStatesReused.Inc()
		return st
	}
	st := newWorkerState(e)
	st.intern = e.intern
	mStatesCreated.Inc()
	return st
}

func (e *engine) putState(st *workerState) {
	if st.statActivations > 0 {
		mActivations.Add(uint64(st.statActivations))
		st.statActivations = 0
	}
	if st.statKept > 0 {
		mCaptureKept.Add(uint64(st.statKept))
		st.statKept = 0
	}
	if st.statRecycled > 0 {
		mCaptureRecycled.Add(uint64(st.statRecycled))
		st.statRecycled = 0
	}
	if st.statPersisted > 0 {
		mCapturePersisted.Add(uint64(st.statPersisted))
		st.statPersisted = 0
	}
	e.statePool.Put(st)
}
