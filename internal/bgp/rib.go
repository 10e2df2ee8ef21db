package bgp

import (
	"slices"
	"sync/atomic"

	"github.com/policyscope/policyscope/internal/netx"
)

// RIB is a routing information base for one AS: for each prefix the set of
// candidate routes (at most one per neighbor AS, as BGP sessions replace
// prior announcements) and the selected best route.
//
// RIB is the unit the paper's analyses read. It intentionally keeps *all*
// candidates, not just the best route, because Looking Glass output
// ("show ip bgp") exposes every path and several analyses need them.
type RIB struct {
	// Owner is the AS whose table this is.
	Owner ASN

	// entries holds the table's own entries; they are the only ones it
	// mutates. A CloneCOW table reads through to parent, the source's
	// immutable entry map, for every prefix it has not written; a nil
	// entry marks a parent prefix this table dropped. parent is nil for a
	// table built from scratch.
	entries map[netx.Prefix]*ribEntry
	parent  map[netx.Prefix]*ribEntry
	// sorted caches Prefixes() output. Mutations that change the prefix
	// set store nil (invalidate); readers rebuild lazily. It is atomic
	// because analyses read one table from many goroutines — concurrent
	// readers may both rebuild (benign, each result is equivalent) but
	// must never observe a torn cache. The cached slice is never mutated
	// in place, so COW clones may share it safely.
	sorted atomic.Pointer[[]netx.Prefix]
	// maxStep lets ablations truncate the decision process; zero means
	// the full seven steps.
	maxStep DecisionStep
}

// ribEntry holds one prefix's candidates as two aligned slices sorted by
// announcing neighbor ASN (locally originated routes use the owner's own
// ASN as the key). The flat layout keeps Upsert/Withdraw allocation-free
// in the steady state and makes the deterministic candidate order
// (ascending neighbor) implicit instead of re-sorted per access.
type ribEntry struct {
	nbrs   []ASN
	routes []*Route
	best   *Route
}

// find returns the index of neighbor in e.nbrs and whether it is present;
// when absent, the index is the insertion point.
func (e *ribEntry) find(neighbor ASN) (int, bool) {
	return slices.BinarySearch(e.nbrs, neighbor)
}

func (e *ribEntry) clone() *ribEntry {
	return &ribEntry{
		nbrs:   append([]ASN(nil), e.nbrs...),
		routes: append([]*Route(nil), e.routes...),
		best:   e.best,
	}
}

// NewRIB returns an empty table owned by asn.
func NewRIB(asn ASN) *RIB {
	return &RIB{Owner: asn, entries: make(map[netx.Prefix]*ribEntry)}
}

// NewRIBSized returns an empty table pre-sized for n prefixes — the
// bulk-install constructor the study-format decoder uses so the entry
// map never rehashes during a load.
func NewRIBSized(asn ASN, n int) *RIB {
	return &RIB{Owner: asn, entries: make(map[netx.Prefix]*ribEntry, n)}
}

// SetDecisionDepth truncates the decision process at step s for all future
// selections (ablation support). Zero restores the full process.
func (t *RIB) SetDecisionDepth(s DecisionStep) { t.maxStep = s }

func (t *RIB) depth() DecisionStep {
	if t.maxStep == 0 {
		return StepRouterID
	}
	return t.maxStep
}

// entry returns prefix's entry in the merged view (nil when absent):
// the table's own entry or drop marker first, the parent layer's
// otherwise. Treat the result as read-only; see writableEntry.
func (t *RIB) entry(prefix netx.Prefix) *ribEntry {
	if e, own := t.entries[prefix]; own {
		return e
	}
	return t.parent[prefix]
}

// each visits every entry of the merged view, in no particular order.
func (t *RIB) each(fn func(netx.Prefix, *ribEntry)) {
	for p, e := range t.entries {
		if e != nil {
			fn(p, e)
		}
	}
	for p, e := range t.parent {
		if _, own := t.entries[p]; !own {
			fn(p, e)
		}
	}
}

// writableEntry returns the table's own entry for prefix, creating it on
// first use — as a copy of the parent layer's entry when there is one.
func (t *RIB) writableEntry(prefix netx.Prefix) *ribEntry {
	if e := t.entries[prefix]; e != nil {
		return e
	}
	var e *ribEntry
	if shared := t.entry(prefix); shared != nil {
		e = shared.clone()
	} else {
		e = &ribEntry{}
		t.sorted.Store(nil)
	}
	t.entries[prefix] = e
	return e
}

// install makes e the table's own entry for prefix; drop removes the
// prefix, leaving a marker when the parent layer still holds it.
func (t *RIB) install(prefix netx.Prefix, e *ribEntry) {
	if t.entry(prefix) == nil {
		t.sorted.Store(nil)
	}
	t.entries[prefix] = e
}

func (t *RIB) drop(prefix netx.Prefix) {
	if _, below := t.parent[prefix]; below {
		t.entries[prefix] = nil
	} else {
		delete(t.entries, prefix)
	}
	t.sorted.Store(nil)
}

// Upsert installs route (learned from the given neighbor; use the owner
// ASN for locally originated prefixes), replacing any previous route from
// the same neighbor for the same prefix. It returns true when the best
// route for the prefix changed.
func (t *RIB) Upsert(neighbor ASN, route *Route) bool {
	e := t.writableEntry(route.Prefix)
	i, ok := e.find(neighbor)
	if ok {
		e.routes[i] = route
	} else {
		e.nbrs = append(e.nbrs, 0)
		copy(e.nbrs[i+1:], e.nbrs[i:])
		e.nbrs[i] = neighbor
		e.routes = append(e.routes, nil)
		copy(e.routes[i+1:], e.routes[i:])
		e.routes[i] = route
	}
	return t.reselect(e)
}

// Withdraw removes the route for prefix learned from neighbor. It returns
// true when the best route changed (including disappearing).
func (t *RIB) Withdraw(neighbor ASN, prefix netx.Prefix) bool {
	return t.WithdrawInto(neighbor, prefix, nil)
}

// WithdrawInto is Withdraw for a caller that owns the storage of what the
// table writes, as InstallOwned's does. When prefix's entry is read
// through from the parent layer and keeps candidates, the table's own
// copy goes into what carve returns for its n remaining candidates: an
// entry and two lists of length n that end at their capacity, any of
// them nil to have the table allocate it. A nil carve allocates all
// three. The caller must not write the storage while the table holds the
// entry.
func (t *RIB) WithdrawInto(neighbor ASN, prefix netx.Prefix, carve func(n int) (*EntrySlot, []ASN, []*Route)) bool {
	e := t.entry(prefix)
	if e == nil {
		return false
	}
	i, ok := e.find(neighbor)
	if !ok {
		return false
	}
	if len(e.nbrs) == 1 {
		t.drop(prefix)
		return e.best != nil
	}
	if t.entries[prefix] != nil {
		e.nbrs = append(e.nbrs[:i], e.nbrs[i+1:]...)
		e.routes = append(e.routes[:i], e.routes[i+1:]...)
		return t.reselect(e)
	}
	n := len(e.nbrs) - 1
	var (
		into   *EntrySlot
		nbrs   []ASN
		routes []*Route
	)
	if carve != nil {
		into, nbrs, routes = carve(n)
	}
	if into == nil {
		into = new(EntrySlot)
	}
	if nbrs == nil {
		nbrs = make([]ASN, n)
	}
	if routes == nil {
		routes = make([]*Route, n)
	}
	copy(nbrs[copy(nbrs, e.nbrs[:i]):], e.nbrs[i+1:])
	copy(routes[copy(routes, e.routes[:i]):], e.routes[i+1:])
	into.e = ribEntry{nbrs: nbrs, routes: routes, best: e.best}
	t.entries[prefix] = &into.e
	return t.reselect(&into.e)
}

// reselect recomputes the entry's best route over the candidates in
// ascending-neighbor order (the deterministic "first wins" tie-break).
func (t *RIB) reselect(e *ribEntry) bool {
	var best *Route
	for _, r := range e.routes {
		if best == nil || Compare(r, best, t.depth()) < 0 {
			best = r
		}
	}
	changed := !routesEqual(best, e.best)
	e.best = best
	return changed
}

func routesEqual(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return RenderEqual(a, b) &&
		a.FromIBGP == b.FromIBGP &&
		a.IGPMetric == b.IGPMetric &&
		a.RouterID == b.RouterID &&
		len(a.Communities) == len(b.Communities)
}

// RenderEqual reports whether a and b are the same route as far as
// Route.String shows: prefix, AS path, local preference, MED and origin,
// with a nil route equal only to nil. It is the equivalence a what-if
// report counts changed best routes under — coarser than routesEqual
// (next hop, communities and the tie-break attributes are not rendered).
func RenderEqual(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Prefix == b.Prefix &&
		a.Path.Equal(b.Path) &&
		a.LocalPref == b.LocalPref &&
		a.MED == b.MED &&
		a.Origin == b.Origin
}

// EntrySlot is the storage of one table entry, for a caller that carves
// entries out of storage of its own (InstallOwned). The zero value is
// ready to use.
type EntrySlot struct{ e ribEntry }

// InstallOwned replaces prefix's entry wholesale with pre-selected
// state: neighbors must be ascending, routes aligned with them, and best
// the route the decision process would pick (nil only when routes is
// empty, which drops the prefix). The table takes ownership of both
// slices and, when into is not nil, keeps the entry in it (otherwise in
// one it allocates); the caller must not write any of them while the
// table holds the entry. It is the bulk-install entry point of the
// study-format decoder, which carves per-prefix subslices out of one
// arena per table, and of the simulator's capture path, which carves all
// three out of storage its rollback reuses once the entry is gone. A
// later Upsert appends past a slice's length, so a carved slice must end
// at its capacity.
func (t *RIB) InstallOwned(prefix netx.Prefix, into *EntrySlot, neighbors []ASN, routes []*Route, best *Route) {
	if len(neighbors) == 0 {
		t.DropPrefix(prefix)
		return
	}
	if into == nil {
		into = new(EntrySlot)
	}
	into.e = ribEntry{nbrs: neighbors, routes: routes, best: best}
	t.install(prefix, &into.e)
}

// EachEntry calls fn for every prefix with its full entry — aligned
// neighbor/route slices (ascending neighbor) plus the selected best —
// in prefix Compare order. It is the no-copy serialization walk the
// study-format encoder uses; callers must treat the slices as
// read-only.
func (t *RIB) EachEntry(fn func(prefix netx.Prefix, neighbors []ASN, routes []*Route, best *Route)) {
	for _, prefix := range t.Prefixes() {
		e := t.entry(prefix)
		fn(prefix, e.nbrs, e.routes, e.best)
	}
}

// EntryImage is one prefix's entry as SaveEntry found it in the table's
// layers, for RevertEntry to put back: the scenario engine's rollback
// journal holds one per entry an Apply writes. An entry the table reads
// through to is held as the parent layer's pointer, since that layer is
// never written; only the table's own entry, which it writes in place,
// is copied.
type EntryImage struct {
	e        *ribEntry // nil: absent, or dropped over the parent layer
	readThru bool      // e is the parent layer's entry
}

// SaveEntry records how prefix stands in the table.
func (t *RIB) SaveEntry(prefix netx.Prefix) EntryImage {
	if e, own := t.entries[prefix]; own {
		if e == nil {
			return EntryImage{}
		}
		return EntryImage{e: e.clone()}
	}
	e := t.parent[prefix]
	return EntryImage{e: e, readThru: e != nil}
}

// RevertEntry puts back an image SaveEntry took of prefix, consuming it:
// the table adopts an own entry's copy, and reads through again to a
// parent entry its parent layer still holds. A parent layer replaced
// since (a CloneCOW flattens the layers) gets a copy of the entry in the
// own layer instead.
func (t *RIB) RevertEntry(prefix netx.Prefix, img EntryImage) {
	was := t.entry(prefix) != nil
	below, inParent := t.parent[prefix]
	switch {
	case img.readThru && below == img.e:
		delete(t.entries, prefix)
	case img.readThru:
		t.entries[prefix] = img.e.clone()
	case img.e != nil:
		t.entries[prefix] = img.e
	case inParent:
		t.entries[prefix] = nil
	default:
		delete(t.entries, prefix)
	}
	if was != (t.entry(prefix) != nil) {
		t.sorted.Store(nil)
	}
}

// Clone returns an independent deep copy of the table. Route values are
// shared (the simulator never mutates an installed *Route); the entry
// map and candidate slices are copied, so Upsert/Withdraw/DropPrefix on
// the clone leave the original untouched.
func (t *RIB) Clone() *RIB {
	c := &RIB{Owner: t.Owner, maxStep: t.maxStep,
		entries: make(map[netx.Prefix]*ribEntry, len(t.parent)+len(t.entries))}
	c.sorted.Store(t.sorted.Load())
	t.each(func(p netx.Prefix, e *ribEntry) { c.entries[p] = e.clone() })
	return c
}

// CloneCOW returns a copy-on-write copy in O(1): the receiver's entry map
// becomes the copy's immutable parent layer, and the copy records only
// the entries it writes or drops on top of it — so cloning a large table
// to rewrite a handful of prefixes costs those prefixes, and every reader
// sees the merged view. Layers never stack: the copy of a table that
// itself has a parent layer starts from the two flattened into one map.
// The receiver MUST NOT be mutated after CloneCOW (the copy reads its
// map); the scenario engine enforces this by retiring the source table
// once any clone exists.
func (t *RIB) CloneCOW() *RIB {
	c := &RIB{Owner: t.Owner, maxStep: t.maxStep,
		entries: make(map[netx.Prefix]*ribEntry), parent: t.entries}
	if t.parent != nil {
		c.parent = make(map[netx.Prefix]*ribEntry, len(t.parent)+len(t.entries))
		t.each(func(p netx.Prefix, e *ribEntry) { c.parent[p] = e })
	}
	c.sorted.Store(t.sorted.Load())
	return c
}

// DropPrefix removes every candidate for prefix, reporting whether the
// prefix was present. Used when a simulation epoch recomputes a prefix
// from scratch.
func (t *RIB) DropPrefix(prefix netx.Prefix) bool {
	if t.entry(prefix) == nil {
		return false
	}
	t.drop(prefix)
	return true
}

// EachCandidate calls fn for every candidate route with the neighbor it
// was learned from (the owner ASN for locally originated prefixes), in
// (prefix Compare order, neighbor ascending) order — the serialization
// walk: NewRIB + Upsert over the emitted triples reconstructs the table.
func (t *RIB) EachCandidate(fn func(prefix netx.Prefix, from ASN, r *Route)) {
	for _, prefix := range t.Prefixes() {
		e := t.entry(prefix)
		for i, n := range e.nbrs {
			fn(prefix, n, e.routes[i])
		}
	}
}

// Has reports whether the table holds any candidate for prefix.
func (t *RIB) Has(prefix netx.Prefix) bool {
	return t.entry(prefix) != nil
}

// Best returns the selected route for prefix, or nil.
func (t *RIB) Best(prefix netx.Prefix) *Route {
	if e := t.entry(prefix); e != nil {
		return e.best
	}
	return nil
}

// Candidates returns every candidate route for prefix in ascending
// neighbor order (the order IOS would list paths deterministically). The
// returned slice is a copy and safe to hold across mutations.
func (t *RIB) Candidates(prefix netx.Prefix) []*Route {
	e := t.entry(prefix)
	if e == nil {
		return nil
	}
	return append([]*Route(nil), e.routes...)
}

// CandidateFrom returns the candidate learned from the given neighbor.
func (t *RIB) CandidateFrom(prefix netx.Prefix, neighbor ASN) *Route {
	if e := t.entry(prefix); e != nil {
		if i, ok := e.find(neighbor); ok {
			return e.routes[i]
		}
	}
	return nil
}

// Prefixes returns every prefix with at least one route, in Compare
// order. The slice is cached and invalidated by prefix-set mutations
// (Upsert of a new prefix, Withdraw of a last candidate, DropPrefix,
// InstallOwned), so repeated calls — one per collector peer in
// ViewFromPeerTable — neither allocate nor re-sort. Concurrent readers
// are safe on a quiescent table; treat the result as read-only.
func (t *RIB) Prefixes() []netx.Prefix {
	if cached := t.sorted.Load(); cached != nil {
		return *cached
	}
	out := make([]netx.Prefix, 0, len(t.parent)+len(t.entries))
	t.each(func(p netx.Prefix, _ *ribEntry) { out = append(out, p) })
	netx.SortPrefixes(out)
	t.sorted.Store(&out)
	return out
}

// Len returns the number of prefixes in the table.
func (t *RIB) Len() int {
	if t.parent == nil {
		return len(t.entries)
	}
	return len(t.Prefixes())
}

// NumRoutes returns the total number of candidate routes across prefixes.
func (t *RIB) NumRoutes() int {
	n := 0
	t.each(func(_ netx.Prefix, e *ribEntry) { n += len(e.routes) })
	return n
}

// EachBest calls fn for every (prefix, best route) pair in Compare order.
func (t *RIB) EachBest(fn func(netx.Prefix, *Route)) {
	for _, p := range t.Prefixes() {
		if b := t.entry(p).best; b != nil {
			fn(p, b)
		}
	}
}

// BestRoutes returns all best routes in prefix order. The paper observes
// that best routes suffice for SA-prefix inference; this accessor is what
// the RouteViews-style collector exports.
func (t *RIB) BestRoutes() []*Route {
	out := make([]*Route, 0, t.Len())
	t.EachBest(func(_ netx.Prefix, r *Route) { out = append(out, r) })
	return out
}
