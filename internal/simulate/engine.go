// Package simulate computes the converged BGP state of a generated
// topology: every AS originates its prefixes, export policies (the
// valley-free rules of Section 2.2.2 plus the topology's ground-truth
// selective-announcement, community and aggregation policies) gate
// propagation, import policies assign local preference, and the decision
// process selects best routes.
//
// The computation is per-prefix event-driven to a fixpoint, which handles
// atypical preferences and scoped communities uniformly, and is
// embarrassingly parallel across prefixes. Only designated vantage ASes
// retain their full tables (candidate routes included), mirroring how the
// paper observes the Internet through RouteViews peers and Looking Glass
// servers.
//
// Two structural optimizations keep the loop fast without changing its
// results (engine_equivalence_test.go proves byte-identity against a
// reference implementation):
//
//   - the hot loop is allocation-lean: candidates live in a flat CSR
//     store aligned with the adjacency, Route/Path values come from
//     per-worker arenas, and best-route selection is an inline linear
//     scan (candidates always have distinct next-hop ASes, so the
//     deterministic-MED grouping of bgp.Best degenerates to it);
//   - prefixes are converged atom-sharded (see atoms.go): one full
//     propagation per propagation-equivalence class, then a cheap
//     deviation re-convergence per member prefix.
//
// On top of the one-shot Run entry point, the package offers a
// what-if scenario engine (see scenario.go): Engine holds a converged
// state plus a per-prefix record of every AS's best next hop, and
// Engine.Apply re-converges only the prefixes an event — link failure or
// restoration, prefix withdrawal or re-origination, policy edit — can
// actually disturb, seeding the per-prefix activation loop from the
// reconstructed pre-event state instead of recomputing the fixpoint from
// scratch. An Engine's Result is a view of it, so one convergence serves
// both the analyses and the what-ifs, and RestoreEngine (restore.go)
// rebuilds a converged Engine from stored tables and forest rows without
// converging at all. Ablation knobs (DecisionDepth, IgnoreImportPolicy)
// are exercised by the benchmark suite in the repository root.
package simulate

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
	"github.com/policyscope/policyscope/obs"
)

// LocalRoutePref is the local preference assigned to locally originated
// routes, modelling the "weight"-style dominance of local routes over any
// learned route.
const LocalRoutePref = 1 << 20

// Options configures a simulation run.
type Options struct {
	// VantagePoints lists the ASes whose complete tables (all candidate
	// routes) are retained in the result. Other ASes' state is transient.
	VantagePoints []bgp.ASN
	// Parallelism bounds worker goroutines; 0 uses GOMAXPROCS.
	Parallelism int
	// DecisionDepth truncates the decision process (ablation); 0 = full.
	DecisionDepth bgp.DecisionStep
	// IgnoreImportPolicy, when true, leaves every learned route at the
	// protocol-default local preference, reducing selection to shortest
	// AS path — the ablation baseline the paper's Section 4.1 argues
	// against.
	IgnoreImportPolicy bool
	// ActivationBudget bounds per-prefix work as a multiple of the edge
	// count; 0 uses a generous default. Prefixes exceeding it are
	// reported in Result.Unconverged.
	ActivationBudget int
	// DisableAtomDedup turns off atom-sharded convergence and runs every
	// prefix through the full per-prefix fixpoint. The results are
	// identical either way (the equivalence property tests prove it);
	// the knob exists for benchmarking and as an escape hatch.
	DisableAtomDedup bool
	// Intern, when set, is the shared canonical-attribute table the
	// engine's workers populate and consult (community sets today). A
	// study loaded from the binary cache passes the table its decoder
	// already filled, so convergence and what-if work reuse the decoded
	// allocations. Nil allocates a private table.
	Intern *bgp.Intern
}

// Result is the observable outcome of a run.
type Result struct {
	// Tables holds the full RIB of each vantage AS.
	Tables map[bgp.ASN]*bgp.RIB
	// ReachCount counts, per prefix, how many ASes hold at least one
	// route to it — the "available paths" view behind the paper's
	// connectivity-vs-reachability discussion.
	ReachCount map[netx.Prefix]int
	// Unconverged lists prefixes that hit the activation budget (none at
	// sane configurations; a non-empty list indicates a preference cycle).
	Unconverged []netx.Prefix
}

// engine holds immutable per-run state shared by workers.
type engine struct {
	topo  *topogen.Topology
	opts  Options
	idx   map[bgp.ASN]int
	asns  []bgp.ASN
	nbrs  [][]int32   // sorted neighbor indices per AS
	sess  [][]session // sess[v][j]: v's record of its session with nbrs[v][j]
	pols  []*topogen.Policy
	depth bgp.DecisionStep

	// csrOff is the CSR offset table over nbrs (len n+1); adjVersion is
	// drawn from the process-global counter whenever the adjacency (and
	// hence the layout) changes, so pooled worker states know to re-size
	// their candidate stores. back is the reverse index: back[u][j] is
	// the position of u inside nbrs[v] for v = nbrs[u][j], so the export
	// loop addresses the receiver's candidate slot without a binary
	// search. statePool is a pointer because engine clones share the
	// parent's pool: worker states warmed on the base engine serve every
	// clone (versions are globally unique, so a state that migrated from
	// an engine with a different layout re-sizes on first use).
	csrOff     []int32
	back       [][]int32
	adjVersion uint64
	statePool  *sync.Pool
	// stale is relink's scratch list of the ASes whose reverse index it
	// recomputes, and nbrASNs rebuildAdjacency's of one AS's neighbors.
	stale   []int32
	nbrASNs []bgp.ASN

	// intern is the shared canonical-attribute table (see Options.Intern);
	// never nil after newEngine, shared by Clone.
	intern *bgp.Intern

	vantage     map[int]bool
	tables      map[int]*tableSlot
	budget      int
	reachCounts []int64 // indexed like prefix list
	prefixes    []netx.Prefix
	prefixIdx   map[netx.Prefix]int

	// atoms is the propagation-equivalence partition used by the cold
	// convergence path; nil when dedup is disabled. atomsStale is set by
	// Engine.Apply — scenario events can change origins, policies and
	// adjacency, invalidating the partition — and routes later
	// convergences through the plain per-prefix path. See atoms.go.
	atoms      *atomIndex
	atomsStale bool

	// journal, when armed via Engine.Checkpoint, logs the inverse of
	// everything an Apply writes so Rollback can restore the checkpointed
	// state. See journal.go.
	journal *applyJournal
	// spent is the journal the last Rollback emptied, kept for the next
	// Checkpoint to arm again in place.
	spent *applyJournal
	// applying is set while an Engine.Apply runs: writes to vantage tables
	// then record pre-batch bests (writableFor).
	applying bool
	// region is where an Apply under a checkpoint carves what it writes;
	// clones counts the Clones taken of this engine, which decide whether
	// a Rollback may rewind it. See journal.go.
	region *region
	clones uint64

	// track, when non-nil, records for every prefix the converged best
	// next hop of every AS: track[prefixIdx][asIdx] is the as-index the
	// best route was learned from, the AS's own index for local routes,
	// and trackNone for no route. The scenario engine reconstructs full
	// pre-event routing state from this forest.
	track [][]int32
	// trackShared marks track rows shared with a copy-on-write engine
	// clone: the row is copied or replaced before its first in-place
	// write. Nil until the first Clone. (Atom fan-out deliberately does
	// NOT share rows between class members — members diverge whenever a
	// deviation flips a best choice, so every prefix owns its row.)
	trackShared []bool
}

// tableSlot holds one vantage table behind its lock. The slot pointer
// is stable for the engine's lifetime (the tables map is never written
// after construction), so workers can mutate the RIB — replacing it
// first when it is shared with an engine clone — without racing on the
// map itself.
type tableSlot struct {
	mu  sync.Mutex
	rib *bgp.RIB
	// shared marks the RIB as visible from a copy-on-write clone.
	shared bool
	// preBest holds, while an Engine.Apply runs, the best route each
	// prefix had in this table before the batch's first write to its
	// entry (nil for an absent entry); empty between Applies. Apply
	// derives Delta.PeerBestChanged from it; see writableFor.
	preBest map[netx.Prefix]*bgp.Route
}

// writable returns the slot's RIB, un-sharing it first. The retired RIB
// is never written again (every sharer copies-on-write through its own
// slot), so the O(1) layered CloneCOW is safe here. Callers must
// hold slot.mu.
func (s *tableSlot) writable() *bgp.RIB {
	if s.shared {
		s.rib = s.rib.CloneCOW()
		s.shared = false
		mCowTable.Inc()
	}
	return s.rib
}

// trackNone marks "no route" in the per-prefix best-next-hop record.
const trackNone int32 = -1

// session is what AS v knows of the session in one slot of its adjacency
// before any prefix is named: what the neighbor is to v, and the import
// side of every route arriving over it — the local preference and the
// relationship tag v assigns — worked out once per slot from the graph and
// v's Policy instead of once per announcement (see importAt).
//
// The records rest on one invariant: scenario events write only entries
// of a Policy's Override and Export (edit.go), on an engine's own copy
// that shares Import and Tagging with the Policy it copies (an AS without
// a Policy grows one with neither). So every Policy an AS has had within
// an engine family — pre-event, post-event, rolled back — agrees on what
// a record holds, and a record goes stale only when its slot moves, which
// rebuilds it. Override is the one input left out; importAt asks
// topogen wherever one is set.
type session struct {
	rel asgraph.Relationship // what the neighbor is to v
	// hashed says v prices the neighbor's routes per prefix (a per-prefix
	// or atypical neighbor): lp does not apply.
	hashed bool
	tagged bool
	lp     uint32
	tag    bgp.Community
}

// newSession derives v's record of its session with neighbor, which is
// rel to v, from v's Policy pol.
func (e *engine) newSession(pol *topogen.Policy, neighbor bgp.ASN, rel asgraph.Relationship) session {
	s := session{rel: rel, lp: bgp.DefaultLocalPref}
	if !e.opts.IgnoreImportPolicy {
		var uniform bool
		s.lp, uniform = pol.NeighborLocalPref(neighbor)
		s.hashed = !uniform
	}
	if pol != nil && pol.Tagging != nil {
		s.tag, s.tagged = pol.Tagging.TagFor(rel, neighbor)
	}
	return s
}

func newEngine(topo *topogen.Topology, opts Options) *engine {
	e := &engine{
		topo:      topo,
		opts:      opts,
		idx:       make(map[bgp.ASN]int, len(topo.Order)),
		asns:      topo.Order,
		statePool: new(sync.Pool),
		intern:    opts.Intern,
	}
	if e.intern == nil {
		e.intern = bgp.NewIntern()
	}
	for i, asn := range topo.Order {
		e.idx[asn] = i
	}
	n := len(e.asns)
	e.nbrs = make([][]int32, n)
	e.sess = make([][]session, n)
	e.pols = make([]*topogen.Policy, n)
	for i, asn := range e.asns {
		e.pols[i] = topo.Policies[asn]
	}
	for i := range e.asns {
		e.rebuildAdjacency(int32(i), nil)
	}
	e.rebuildCSR()
	e.depth = opts.DecisionDepth
	if e.depth == 0 {
		e.depth = bgp.StepRouterID
	}
	e.vantage = make(map[int]bool, len(opts.VantagePoints))
	e.tables = make(map[int]*tableSlot, len(opts.VantagePoints))
	for _, asn := range opts.VantagePoints {
		i, ok := e.idx[asn]
		if !ok {
			continue
		}
		e.vantage[i] = true
		rib := bgp.NewRIB(asn)
		rib.SetDecisionDepth(opts.DecisionDepth)
		e.tables[i] = &tableSlot{rib: rib}
	}
	e.budget = opts.ActivationBudget
	if e.budget == 0 {
		e.budget = 200
	}
	e.prefixes = make([]netx.Prefix, 0, len(topo.PrefixOrigin))
	for p := range topo.PrefixOrigin {
		e.prefixes = append(e.prefixes, p)
	}
	netx.SortPrefixes(e.prefixes)
	e.prefixIdx = make(map[netx.Prefix]int, len(e.prefixes))
	for i, p := range e.prefixes {
		e.prefixIdx[p] = i
	}
	e.reachCounts = make([]int64, len(e.prefixes))
	if e.atomsApplicable() {
		e.atoms = buildAtomIndex(e)
	}
	return e
}

// rebuildAdjacency derives AS i's neighbor list and session records from
// the graph and i's Policy, into fresh slices (clones and the journal keep
// the ones they replace) carved from va, or made on the heap when va is
// nil. newEngine calls it for every AS, relink for the endpoints
// of a batch's link events.
func (e *engine) rebuildAdjacency(i int32, va *region) {
	asn, pol := e.asns[i], e.pols[i]
	nbs := e.topo.Graph.AppendNeighbors(e.nbrASNs[:0], asn)
	e.nbrASNs = nbs
	nbrs, sess := va.int32s(len(nbs)), va.sessions(len(nbs))
	for j, nb := range nbs {
		nbrs[j] = int32(e.idx[nb])
		sess[j] = e.newSession(pol, nb, e.topo.Graph.Rel(asn, nb))
	}
	e.nbrs[i], e.sess[i] = nbrs, sess
}

// sessionTo looks up the session between u and v in u's adjacency: what v
// is to u, and u's slot in v's adjacency — the one v's record of the
// session sits at. RelNone and -1 when the two are not adjacent.
func (e *engine) sessionTo(u, v int32) (asgraph.Relationship, int32) {
	if j := slotOf(e.nbrs[u], v); j >= 0 {
		return e.sess[u][j].rel, e.back[u][j]
	}
	return asgraph.RelNone, -1
}

// atomsApplicable reports whether atom-sharded convergence is safe for
// the configured options. The fan-out correctness argument relies on the
// uniqueness of the converged fixpoint under the full decision process;
// truncated-decision ablations fall back to plain per-prefix propagation.
func (e *engine) atomsApplicable() bool {
	if e.opts.DisableAtomDedup {
		return false
	}
	return e.opts.DecisionDepth == 0 || e.opts.DecisionDepth == bgp.StepRouterID
}

// adjVersions issues process-globally unique adjacency versions. Global
// (not per engine) because clones share one state pool: a worker state
// warmed on engine A must never false-match engine B's layout just
// because both counted to the same value independently.
var adjVersions atomic.Uint64

// rebuildCSR derives the whole CSR layout — offsets and the reverse index
// of every AS — from the per-AS adjacency lists. Construction only: a
// link event moves the slots of its endpoints and their neighbors and
// nobody else's, see relink.
func (e *engine) rebuildCSR() {
	e.back = make([][]int32, len(e.asns))
	for u := range e.nbrs {
		e.rebuildBack(int32(u), nil)
	}
	e.publishLayout(nil)
}

// rebuildBack recomputes back[u] into a fresh slice carved from va, or
// made on the heap (clones alias the old one until they rebuild).
func (e *engine) rebuildBack(u int32, va *region) {
	back := va.int32s(len(e.nbrs[u]))
	for j, v := range e.nbrs[u] {
		back[j] = int32(slotOf(e.nbrs[v], u))
	}
	e.back[u] = back
}

// publishLayout refreshes the CSR offsets from the adjacency lists and
// re-stamps the adjacency version so pooled worker states re-size. The
// offset table is always a fresh slice — never rewritten in place —
// because worker states from the family-shared pool alias the slice of
// whatever engine they last synced against; replacing wholesale keeps
// every published layout immutable while it is published, so an
// in-flight state on a sibling clone can keep reading its
// (version-matched) layout while this engine rebuilds. A table carved
// from va is written again only after a Rollback rewound the region, when
// no engine publishes it any more; journal.go says why no pooled state
// reads it then.
func (e *engine) publishLayout(va *region) {
	n := len(e.asns)
	csrOff := va.int32s(n + 1)
	off := int32(0)
	for i := 0; i < n; i++ {
		csrOff[i] = off
		off += int32(len(e.nbrs[i]))
	}
	csrOff[n] = off
	e.csrOff = csrOff
	e.adjVersion = adjVersions.Add(1)
}

// relink brings the adjacency arrays and the CSR layout up to date with
// the graph after link events at the given endpoints (sorted ascending,
// no duplicates). An endpoint's neighbor list changed, which moves the
// slot every one of its current neighbors occupies in it: the reverse
// index is recomputed for the endpoints and those neighbors, and stays
// as it is for the rest of the graph. The events only add or remove
// edges between endpoints, so those neighbors are the same before and
// after. Every slice it replaces goes to the journal as it stands, the
// pre-image Rollback puts back, and under a checkpoint every slice it
// writes is carved from the region the Rollback rewinds.
func (e *engine) relink(endpoints []int32) {
	stale := append(e.stale[:0], endpoints...)
	for _, i := range endpoints {
		stale = append(stale, e.nbrs[i]...)
	}
	slices.Sort(stale)
	stale = slices.Compact(stale)
	e.stale = stale
	e.journal.relinkPre(e, stale)
	va := e.carving()
	for _, i := range endpoints {
		e.rebuildAdjacency(i, va)
	}
	for _, u := range stale {
		e.rebuildBack(u, va)
	}
	e.publishLayout(va)
}

// Run simulates the whole topology.
func Run(topo *topogen.Topology, opts Options) (*Result, error) {
	e := newEngine(topo, opts)
	unconverged := e.runPrefixes(e.prefixes)
	return e.buildResult(unconverged), nil
}

func (e *engine) buildResult(unconverged []netx.Prefix) *Result {
	res := &Result{
		Tables:      make(map[bgp.ASN]*bgp.RIB, len(e.tables)),
		ReachCount:  make(map[netx.Prefix]int, len(e.prefixes)),
		Unconverged: unconverged,
	}
	for i, slot := range e.tables {
		res.Tables[e.asns[i]] = slot.rib
	}
	for i, p := range e.prefixes {
		res.ReachCount[p] = int(e.reachCounts[i])
	}
	return res
}

// runPrefixes converges the given prefixes — atom-sharded when the
// partition is available, plain per-prefix otherwise — and returns the
// sorted list of prefixes that exhausted their activation budget.
func (e *engine) runPrefixes(prefixes []netx.Prefix) []netx.Prefix {
	var start time.Time
	if obs.Enabled() {
		start = time.Now()
	}
	var (
		mu          sync.Mutex
		unconverged []netx.Prefix
	)
	fail := func(p netx.Prefix) {
		mu.Lock()
		unconverged = append(unconverged, p)
		mu.Unlock()
	}
	if e.atoms != nil && !e.atomsStale {
		e.runAtoms(prefixes, fail)
	} else {
		e.forEachPrefix(prefixes, func(st *workerState, p netx.Prefix) {
			if !e.propagate(st, p) {
				fail(p)
			}
			e.capture(st, p)
		})
	}
	netx.SortPrefixes(unconverged)
	mConvergeRuns.Inc()
	mConvergePrefixes.Add(uint64(len(prefixes)))
	mConvergeUnconverged.Add(uint64(len(unconverged)))
	if !start.IsZero() {
		mConvergeSeconds.ObserveSince(start)
	}
	return unconverged
}

// A pass is the work forEachIndex spreads over its workers: each worker
// opens one W, visits its indexes with it and closes it.
type pass[W any] interface {
	open() W
	visit(w W, i int)
	close(w W)
}

// forEachIndex runs p.visit for every i in [0, n) on a bounded worker
// pool. Every parallel pass (full convergence, atom groups, incremental
// scenarios) schedules through it. One worker is the caller itself, in
// index order: a sweep's scenarios run at Parallelism 1, and start no
// goroutine per pass.
func forEachIndex[W any](e *engine, n int, p pass[W]) {
	workers := e.workerCount(n)
	if workers == 1 {
		w := p.open()
		defer p.close(w)
		for i := 0; i < n; i++ {
			p.visit(w, i)
		}
		return
	}
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := p.open()
			defer p.close(w)
			for {
				mu.Lock()
				if next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				p.visit(w, i)
			}
		}()
	}
	wg.Wait()
}

// perWorker is a pass made by a function that sets one worker up and
// returns its per-index body and its teardown.
type perWorker func() (body func(int), done func())

type workerFuncs struct {
	body func(int)
	done func()
}

func (f perWorker) open() workerFuncs {
	body, done := f()
	return workerFuncs{body, done}
}
func (perWorker) visit(w workerFuncs, i int) { w.body(i) }
func (perWorker) close(w workerFuncs)        { w.done() }

// forEachPrefix runs fn over every prefix, one pooled workerState per
// worker.
func (e *engine) forEachPrefix(prefixes []netx.Prefix, fn func(*workerState, netx.Prefix)) {
	forEachIndex(e, len(prefixes), perWorker(func() (func(int), func()) {
		st := e.getState()
		return func(i int) { fn(st, prefixes[i]) },
			func() { e.putState(st) }
	}))
}

func (e *engine) workerCount(items int) int {
	workers := e.opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// propagate runs one prefix to convergence in st (without capturing).
// It returns false when the activation budget is exhausted. The caller
// captures st into the engine's observable state afterwards.
func (e *engine) propagate(st *workerState, prefix netx.Prefix) bool {
	origin, ok := e.topo.PrefixOrigin[prefix]
	if !ok {
		st.reset()
		st.curPrefix = prefix
		st.originIdx = trackNone
		return true
	}
	oi := int32(e.idx[origin])
	st.reset()
	st.curPrefix = prefix
	st.originIdx = oi
	st.touch(oi)

	st.best[oi] = localRoute(&st.routes, prefix, origin)
	st.bestFrom[oi] = oi
	st.push(oi)

	return e.drain(st)
}

// drain runs the event-driven activation loop in st until quiescence or
// budget exhaustion (false).
func (e *engine) drain(st *workerState) bool {
	budget := e.budget * (len(e.asns) + e.topo.Graph.NumEdges())
	activations := 0
	converged := true
	for {
		u := st.pop()
		if u < 0 {
			break
		}
		activations++
		if activations > budget {
			converged = false
			break
		}
		st.inQueue[u] = false
		e.exportFrom(st, u)
	}
	// Activations accumulate on the pooled state (plain int, no
	// contention) and flush to the process counter in putState.
	st.statActivations += activations
	return converged
}

// exportFrom announces u's current best route to each neighbor (or
// withdraws a previous announcement no longer permitted).
func (e *engine) exportFrom(st *workerState, u int32) {
	best := st.best[u]
	for j, v := range e.nbrs[u] {
		relVtoU := e.sess[u][j].rel // what v is to u
		vslot := e.back[u][j]
		allowed := best != nil && e.shouldExport(u, v, relVtoU, best, st.curPrefix)
		if allowed {
			e.announceAt(st, u, v, vslot, relVtoU, best)
		} else {
			e.withdrawAt(st, u, v, vslot)
		}
	}
}

// shouldExport applies the export rules of Section 2.2.2 plus the
// topology's ground-truth export policies. prefix is the authoritative
// destination (route.Prefix may belong to the atom representative during
// fan-out re-convergence and is never consulted).
func (e *engine) shouldExport(u, v int32, relVtoU asgraph.Relationship, route *bgp.Route, prefix netx.Prefix) bool {
	uASN, vASN := e.asns[u], e.asns[v]

	// Ingress class of the route at u.
	var ingress asgraph.Relationship // relationship of the announcing neighbor to u
	if !route.IsLocal() {
		nh, _ := route.NextHopAS()
		ingress = e.topo.Graph.Rel(uASN, nh)
	}
	return exportAllowed(uASN, vASN, relVtoU, ingress, route, prefix, e.pols[u])
}

// exportAllowed is the policy core of shouldExport with the ingress
// classification already resolved, so the scenario engine can evaluate
// it against a pre-event relationship view or policy snapshot. prefix is
// passed explicitly (instead of read from the route) because atom
// fan-out re-converges member prefixes over state borrowed from their
// class representative.
func exportAllowed(uASN, vASN bgp.ASN, relVtoU, ingress asgraph.Relationship, route *bgp.Route, prefix netx.Prefix, pol *topogen.Policy) bool {
	// Well-known NO_EXPORT / NO_ADVERTISE.
	if route.Communities.Has(bgp.NoExport) || route.Communities.Has(bgp.NoAdvertise) {
		return false
	}
	// Scoped no-upstream community addressed to u: do not re-export to
	// providers or peers.
	if route.Communities.Has(bgp.MakeCommunity(uASN, topogen.NoUpstreamValue)) &&
		(relVtoU == asgraph.RelProvider || relVtoU == asgraph.RelPeer) {
		return false
	}

	// The standard valley-free export rules: to a provider or peer, only
	// own routes and customer routes.
	if !route.IsLocal() && !valleyFree(relVtoU, ingress) {
		return false
	}

	if pol == nil {
		return true
	}

	// Origin-side selective announcement (Case 3 subsets).
	if route.IsLocal() && relVtoU == asgraph.RelProvider {
		if !pol.Export.AnnouncesToProvider(prefix, vASN) {
			return false
		}
	}
	// Origin-side withholding from a peer (Table 10).
	if route.IsLocal() && relVtoU == asgraph.RelPeer {
		if pol.Export.ExcludedFromPeer(prefix, vASN) {
			return false
		}
	}
	// Intermediate-AS selective announcement.
	if ingress == asgraph.RelCustomer && relVtoU == asgraph.RelProvider {
		if pol.Export.TransitExcluded(uASN, prefix, vASN) {
			return false
		}
	}
	// Provider-side aggregation of delegated specifics (Case 2): the
	// covering block is announced instead; the specific stays inside.
	if ingress == asgraph.RelCustomer && pol.Export.AggregateSpecifics[prefix] {
		return false
	}
	return true
}

// valleyFree is the standard export rule for a learned route: to a
// provider or peer (relVtoU), only routes learned from a customer or
// sibling (ingress). Own routes go everywhere; the caller checks for them.
func valleyFree(relVtoU, ingress asgraph.Relationship) bool {
	return relVtoU != asgraph.RelProvider && relVtoU != asgraph.RelPeer ||
		ingress == asgraph.RelCustomer || ingress == asgraph.RelSibling
}

// announce builds the route as seen at v and installs it (position
// resolved by binary search; the export loop uses announceAt).
func (e *engine) announce(st *workerState, u, v int32, relVtoU asgraph.Relationship, best *bgp.Route) {
	j := slotOf(e.nbrs[v], u)
	if j < 0 {
		return
	}
	e.announceAt(st, u, v, int32(j), relVtoU, best)
}

// announceAt builds the route as seen at v and installs it in the given
// slot of v's candidate row.
func (e *engine) announceAt(st *workerState, u, v, vslot int32, relVtoU asgraph.Relationship, best *bgp.Route) {
	// Loop prevention: v discards routes already carrying its ASN.
	if best.Path.Contains(e.asns[v]) || v == st.originIdx {
		e.withdrawAt(st, u, v, vslot)
		return
	}
	r := e.buildAnnouncement(u, v, vslot, relVtoU, best, st.curPrefix, e.pols[u], e.pols[v], st)
	st.touch(v)
	prev := st.cs.at(v, vslot)
	if prev != nil && sameRoute(prev, r) {
		return
	}
	st.cs.setAt(v, vslot, r)
	e.reselect(st, v)
}

// buildAnnouncement constructs the route v installs when u announces
// best over a session where v is relVtoU to u; vslot is u's slot in v's
// adjacency, -1 where the caller has none (see importAt). The announcing
// and receiving policies are explicit so the scenario engine can rebuild
// pre-event routes against policy snapshots; prefix is the authoritative
// destination (best.Prefix may be the atom representative's). When st is
// non-nil the Route and Path are carved from its arenas and are only
// valid until the worker state resets; a nil st allocates from the heap.
func (e *engine) buildAnnouncement(u, v, vslot int32, relVtoU asgraph.Relationship, best *bgp.Route, prefix netx.Prefix, polU, polV *topogen.Policy, st *workerState) *bgp.Route {
	var noUpstream bool
	if best.IsLocal() && polU != nil {
		to, ok := polU.Export.NoUpstream[prefix]
		noUpstream = ok && to == e.asns[v]
	}
	lp, tag, tagged := e.importAt(u, v, vslot, relVtoU, polV, prefix)
	return e.announcement(u, v, best, prefix, noUpstream, lp, tag, tagged, st)
}

// announcement is buildAnnouncement once the two policies have spoken:
// noUpstream says u attaches the no-upstream community addressed to v,
// and lp, tag and tagged are v's import of the route.
func (e *engine) announcement(u, v int32, best *bgp.Route, prefix netx.Prefix, noUpstream bool, lp uint32, tag bgp.Community, tagged bool, st *workerState) *bgp.Route {
	uASN := e.asns[u]
	comm := best.Communities
	if noUpstream {
		comm = addCommunity(st, comm, bgp.MakeCommunity(e.asns[v], topogen.NoUpstreamValue))
	}
	var path bgp.Path
	if st != nil {
		path = st.paths.prepend(uASN, best.Path)
	} else {
		path = best.Path.Prepend(uASN, 1)
	}
	if tagged {
		comm = addCommunity(st, comm, tag)
	}

	var r *bgp.Route
	if st != nil {
		r = st.routes.alloc()
	} else {
		r = new(bgp.Route)
	}
	*r = bgp.Route{
		Prefix:      prefix,
		Path:        path,
		NextHop:     routerIP(uASN),
		LocalPref:   lp,
		Origin:      best.Origin,
		Communities: comm,
	}
	return r
}

// importAt is the import side of an announcement from u at v, which is
// relVtoU to u: the local preference v assigns to the route for prefix
// under policy polV, and the relationship tag it attaches, if any. v's
// record of the session answers when it describes this very session — the
// slot exists and carries the relationship asked about — and polV has no
// Override and does not price the neighbor per prefix. Every other case,
// pre-event sessions over a link the batch took down or re-typed among
// them, asks topogen, where both rules are defined.
func (e *engine) importAt(u, v, vslot int32, relVtoU asgraph.Relationship, polV *topogen.Policy, prefix netx.Prefix) (lp uint32, tag bgp.Community, tagged bool) {
	// relVtoU is what v is to u; the record and the tag classify u from
	// v's point of view, hence the inversion.
	relUtoV := relVtoU.Invert()
	if vslot >= 0 && (polV == nil || polV.Override == nil) {
		if s := &e.sess[v][vslot]; s.rel == relUtoV && !s.hashed {
			return s.lp, s.tag, s.tagged
		}
	}
	lp = bgp.DefaultLocalPref
	if !e.opts.IgnoreImportPolicy {
		lp = e.topo.EffectiveLocalPrefWith(polV, e.asns[v], e.asns[u], prefix)
	}
	if polV != nil && polV.Tagging != nil {
		tag, tagged = polV.Tagging.TagFor(relUtoV, e.asns[u])
	}
	return lp, tag, tagged
}

func (e *engine) withdraw(st *workerState, u, v int32) {
	if st.seen[v] != st.version {
		return
	}
	if !st.cs.del(e.nbrs[v], v, u) {
		return
	}
	e.reselect(st, v)
}

func (e *engine) withdrawAt(st *workerState, u, v, vslot int32) {
	if st.seen[v] != st.version {
		return
	}
	if !st.cs.delAt(v, vslot) {
		return
	}
	e.reselect(st, v)
}

// reselect recomputes v's best route and schedules v when it changed.
// Candidates are scanned in ascending neighbor order (implicit in the
// CSR layout); because every candidate has a distinct next-hop AS, the
// deterministic-MED grouping of bgp.Best degenerates to this linear
// Compare scan, allocation-free.
func (e *engine) reselect(st *workerState, v int32) {
	var (
		newBest *bgp.Route
		from    = trackNone
	)
	st.cs.each(e.nbrs[v], v, func(u int32, r *bgp.Route) {
		if newBest == nil || bgp.Compare(r, newBest, e.depth) < 0 {
			newBest = r
			from = u
		}
	})
	if routesEquivalent(newBest, st.best[v]) {
		st.best[v] = newBest
		st.bestFrom[v] = from
		return
	}
	st.best[v] = newBest
	st.bestFrom[v] = from
	st.push(v)
}

// sameRoute compares every attribute except Prefix: within one prefix's
// convergence all routes share the logical destination, and during atom
// fan-out the borrowed representative state carries the representative's
// Prefix until capture rewrites it.
func sameRoute(a, b *bgp.Route) bool {
	return a.LocalPref == b.LocalPref &&
		a.MED == b.MED && a.Origin == b.Origin &&
		a.Path.Equal(b.Path) && len(a.Communities) == len(b.Communities) &&
		communitiesEqual(a.Communities, b.Communities)
}

func communitiesEqual(a, b bgp.Communities) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func routesEquivalent(a, b *bgp.Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return sameRoute(a, b)
}

// installable returns the route a vantage table installs for arena route
// r, learned from neighbor for prefix: the one held already holds from
// that neighbor when it is Identical to r with prefix as its destination,
// a copy of r out of the worker's arenas otherwise — carved from va, or
// on the heap when it is nil. prefix is the
// authoritative destination: during atom fan-out r carries the
// representative's Prefix.
func (st *workerState) installable(va *region, held *bgp.RIB, prefix netx.Prefix, neighbor bgp.ASN, r *bgp.Route) *bgp.Route {
	want := *r
	want.Prefix = prefix
	if old := held.CandidateFrom(prefix, neighbor); old != nil && old.Identical(&want) {
		st.statKept++
		return old
	}
	if va != nil {
		st.statRecycled++
	} else {
		st.statPersisted++
	}
	c := va.route()
	*c = want
	// Communities are shared: interned sets are immutable.
	c.Path = va.asnList(r.Path)
	return c
}

// capture copies converged state from st into vantage tables, reach
// counters and (when tracking) the best forest, for the prefix st was
// converged for.
func (e *engine) capture(st *workerState, prefix netx.Prefix) {
	pi := e.prefixIdx[prefix]
	if e.track != nil {
		row := e.track[pi]
		// A row shared with an engine clone (or another atom member) is
		// replaced, not rewritten in place: capture overwrites every cell
		// anyway.
		if shared := e.trackShared != nil && e.trackShared[pi]; row == nil || shared {
			row = e.carving().int32s(len(e.asns))
			e.track[pi] = row
			if shared {
				e.trackShared[pi] = false
				mCowForestRow.Inc()
			}
		}
		for i := range row {
			row[i] = trackNone
		}
		for _, i := range st.touched {
			row[i] = st.bestFrom[i]
		}
	}
	reach := 0
	for _, i := range st.touched {
		if st.best[i] != nil || st.cs.count[i] > 0 {
			reach++
		}
		if !e.vantage[int(i)] {
			continue
		}
		e.captureVantage(st, i, prefix)
	}
	e.reachCounts[pi] = int64(reach)
}

// captureVantage installs AS i's converged candidates for prefix into
// its vantage table. A candidate the entry already holds from the same
// neighbor, attribute for attribute, stays as installed (installed routes
// are immutable); only the ones that moved are deep-copied out of the
// worker's arenas. An Apply under a checkpoint carves the copies and the
// entry's lists from the engine's region, which the Rollback that
// removes the entry rewinds (journal.go). The slot lock is held
// throughout, so the entry read is the one replaced.
func (e *engine) captureVantage(st *workerState, i int32, prefix netx.Prefix) {
	slot := e.tables[int(i)]
	slot.mu.Lock()
	held := slot.rib
	va := e.carving()
	st.capNbrs = st.capNbrs[:0]
	st.capRoutes = st.capRoutes[:0]
	var best *bgp.Route
	if st.best[i] != nil && st.best[i].IsLocal() {
		// Locally originated: the origin holds no learned candidates
		// (loop prevention rejects them), so the entry is the local route
		// keyed by the owner ASN.
		best = st.installable(va, held, prefix, e.asns[i], st.best[i])
		st.capNbrs = append(st.capNbrs, e.asns[i])
		st.capRoutes = append(st.capRoutes, best)
	} else {
		bestFrom := st.bestFrom[i]
		st.cs.each(e.nbrs[i], i, func(u int32, r *bgp.Route) {
			pr := st.installable(va, held, prefix, e.asns[u], r)
			st.capNbrs = append(st.capNbrs, e.asns[u])
			st.capRoutes = append(st.capRoutes, pr)
			if u == bestFrom {
				best = pr
			}
		})
	}
	if best == nil && len(st.capRoutes) > 0 {
		// bestFrom can dangle in mid-oscillation captures (budget
		// exhaustion); fall back to the linear selection the RIB itself
		// would run.
		for _, r := range st.capRoutes {
			if best == nil || bgp.Compare(r, best, e.depth) < 0 {
				best = r
			}
		}
	}
	rib := e.writableFor(int(i), slot, prefix)
	if len(st.capNbrs) == 0 {
		rib.DropPrefix(prefix)
	} else {
		rib.InstallOwned(prefix, va.entry(), va.asnList(st.capNbrs), va.routeList(st.capRoutes), best)
	}
	slot.mu.Unlock()
}

// routerIP synthesizes a stable next-hop IP for an AS's border router.
func routerIP(asn bgp.ASN) uint32 {
	return 0x0a000000 | (uint32(asn)&0xffff)<<8 | 1 // 10.x.y.1
}

// localRoute is the locally originated route installed at an origin AS,
// carved from the arena when one is supplied.
func localRoute(arena *routeArena, prefix netx.Prefix, origin bgp.ASN) *bgp.Route {
	var r *bgp.Route
	if arena != nil {
		r = arena.alloc()
	} else {
		r = new(bgp.Route)
	}
	*r = bgp.Route{
		Prefix:    prefix,
		LocalPref: LocalRoutePref,
		Origin:    bgp.OriginIGP,
		NextHop:   routerIP(origin),
	}
	return r
}

// String renders run options for diagnostics.
func (o Options) String() string {
	return fmt.Sprintf("simulate{vantage=%d, depth=%v, noimport=%v}",
		len(o.VantagePoints), o.DecisionDepth, o.IgnoreImportPolicy)
}
