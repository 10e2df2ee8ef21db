package simulate

import (
	"errors"
	"fmt"
	"sync"

	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
)

// Slot codes of the transportable best forest (ForestSlots,
// RestoreEngine): an AS's best next hop is named by its position in the
// AS's sorted adjacency, which is what keeps a stored row near one byte
// per AS under varint packing (a dense AS index costs two to three).
const (
	// SlotNone: the AS holds no route to the prefix.
	SlotNone int32 = 0
	// SlotOrigin: the AS originates the prefix.
	SlotOrigin int32 = 1
	// slotBase + j: the best route was learned from the AS's j-th
	// neighbor in ascending ASN order.
	slotBase int32 = 2
)

// ErrRestore is wrapped by every RestoreEngine failure: the stored
// converged state does not describe the topology it is being restored
// over. The dataset cache treats it like any entry that will not load:
// it regenerates and replaces the entry.
var ErrRestore = errors.New("simulate: stored converged state does not fit the topology")

func restoreErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrRestore, fmt.Sprintf(format, args...))
}

// ForestSlots returns the engine's best forest in transportable form:
// one row per prefix in sorted prefix order, one slot code per AS in
// topology order. RestoreEngine is its inverse.
func (en *Engine) ForestSlots() [][]int32 {
	e := en.e
	out := make([][]int32, len(e.track))
	for pi, row := range e.track {
		slots := make([]int32, len(row))
		for i, from := range row {
			switch {
			case from == trackNone:
				slots[i] = SlotNone
			case from == int32(i):
				slots[i] = SlotOrigin
			default:
				slots[i] = slotBase + int32(slotOf(e.nbrs[i], from))
			}
		}
		out[pi] = slots
	}
	return out
}

// RestoreEngine rebuilds a converged engine over topo from the state an
// earlier convergence of the same topology and options left behind — the
// vantage tables and reach counts of its Result and its ForestSlots —
// without propagating a single route. It adopts res's tables and
// rewrites forest's rows in place into the engine's own; the caller must
// not use forest afterwards.
//
// Nothing stored is trusted. The restore fails with an error wrapping
// ErrRestore unless res has exactly one table per vantage point and one
// reach count per prefix, forest has one row per prefix and one cell per
// AS, every hop is a current neighbor, the origin code sits at the
// prefix's origin and nowhere else, following hops from any routed AS
// ends at the origin, the routed ASes of a row number its reach count,
// every vantage's hop is the next-hop AS of its table's best route, and
// no table holds an entry for a prefix the topology lacks. A state that
// passes is one the incremental engine can run on; whether it is the
// state convergence would have produced is the writer's promise (the
// cache writes nothing else) and no reader can check it short of
// converging.
func RestoreEngine(topo *topogen.Topology, opts Options, res *Result, forest [][]int32) (*Engine, error) {
	clone := topo.Clone()
	e := newEngine(clone, opts)
	if len(res.Tables) != len(e.tables) {
		return nil, restoreErr("%d tables for %d vantage points", len(res.Tables), len(e.tables))
	}
	for i, slot := range e.tables {
		rib, ok := res.Tables[e.asns[i]]
		if !ok {
			return nil, restoreErr("no table for vantage AS%d", e.asns[i])
		}
		rib.SetDecisionDepth(opts.DecisionDepth)
		slot.rib = rib
	}
	if len(res.ReachCount) != len(e.prefixes) {
		return nil, restoreErr("%d reach counts for %d prefixes", len(res.ReachCount), len(e.prefixes))
	}
	for pi, p := range e.prefixes {
		c, ok := res.ReachCount[p]
		if !ok {
			return nil, restoreErr("no reach count for %v", p)
		}
		e.reachCounts[pi] = int64(c)
	}
	if len(forest) != len(e.prefixes) {
		return nil, restoreErr("%d forest rows for %d prefixes", len(forest), len(e.prefixes))
	}

	// Rows first (every cell becomes an AS index), then the tables against
	// the finished rows. A table is checked whole by one worker: in prefix
	// order its entries sit in the order they were decoded, where a pass
	// across the tables per prefix would miss the cache on every one.
	var (
		mu    sync.Mutex
		first error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	e.forEachIndex(len(forest), func() (func(int), func()) {
		// done[i] == pi+1 once AS i is known to reach prefix pi's origin.
		done := make([]int32, len(e.asns))
		return func(pi int) {
			if err := e.adoptRow(pi, forest[pi], done); err != nil {
				fail(err)
			}
		}, func() {}
	})
	if first != nil {
		return nil, first
	}
	vantages := make([]int, 0, len(e.tables))
	for vi := range e.tables {
		vantages = append(vantages, vi)
	}
	e.forEachIndex(len(vantages), func() (func(int), func()) {
		return func(k int) {
			if err := e.checkTable(vantages[k], forest); err != nil {
				fail(err)
			}
		}, func() {}
	})
	if first != nil {
		return nil, first
	}
	e.track = forest
	return &Engine{e: e, topo: clone, opts: opts, unconv: make(map[netx.Prefix]bool)}, nil
}

// adoptRow validates prefix pi's stored row against the topology and the
// reach counter, rewriting its slot codes into the AS indices the
// engine's forest holds.
func (e *engine) adoptRow(pi int, row, done []int32) error {
	prefix := e.prefixes[pi]
	if len(row) != len(e.asns) {
		return restoreErr("forest row %v has %d cells for %d ASes", prefix, len(row), len(e.asns))
	}
	origin := int32(e.idx[e.topo.PrefixOrigin[prefix]])
	if row[origin] != SlotOrigin {
		return restoreErr("forest row %v: origin AS%d carries code %d", prefix, e.asns[origin], row[origin])
	}
	routed := 0
	for i, code := range row {
		switch {
		case code == SlotNone:
			row[i] = trackNone
			continue
		case code == SlotOrigin:
			if int32(i) != origin {
				return restoreErr("forest row %v: origin code at AS%d, origin is AS%d", prefix, e.asns[i], e.asns[origin])
			}
			row[i] = origin
		case code < 0 || int(code-slotBase) >= len(e.nbrs[i]):
			return restoreErr("forest row %v: AS%d has no neighbor slot %d", prefix, e.asns[i], code-slotBase)
		default:
			row[i] = e.nbrs[i][code-slotBase]
		}
		routed++
	}
	if int64(routed) != e.reachCounts[pi] {
		return restoreErr("forest row %v routes %d ASes, reach count is %d", prefix, routed, e.reachCounts[pi])
	}

	stamp := int32(pi) + 1
	done[origin] = stamp
	for i := range row {
		if row[i] == trackNone || done[i] == stamp {
			continue
		}
		// Walk to an AS already known good; more steps than ASes is a cycle.
		steps := 0
		for j := int32(i); done[j] != stamp; j = row[j] {
			if row[j] == trackNone {
				return restoreErr("forest row %v: hop from AS%d leads to AS%d, which has no route", prefix, e.asns[i], e.asns[j])
			}
			if steps++; steps > len(row) {
				return restoreErr("forest row %v: hops from AS%d cycle", prefix, e.asns[i])
			}
		}
		for j := int32(i); done[j] != stamp; j = row[j] {
			done[j] = stamp
		}
	}
	return nil
}

// checkTable holds vantage vi's adopted table against the adopted forest:
// for every prefix the vantage's hop is the next-hop AS of the table's
// best route (none where the table has no entry, itself where the route
// is local), and the table holds no entry beyond the topology's prefixes.
func (e *engine) checkTable(vi int, forest [][]int32) error {
	rib := e.tables[vi].rib
	held := 0
	for pi, prefix := range e.prefixes {
		best, from := rib.Best(prefix), forest[pi][vi]
		switch {
		case best == nil:
			if from != trackNone {
				return restoreErr("forest row %v: vantage AS%d has a hop but no table entry", prefix, e.asns[vi])
			}
			continue
		case best.IsLocal():
			if from != int32(vi) {
				return restoreErr("forest row %v: vantage AS%d originates the route but the row says otherwise", prefix, e.asns[vi])
			}
		default:
			nh, _ := best.NextHopAS()
			if from == trackNone || from == int32(vi) || e.asns[from] != nh {
				return restoreErr("forest row %v: vantage AS%d's best route comes from AS%d, the row disagrees", prefix, e.asns[vi], nh)
			}
		}
		held++
	}
	if held != rib.Len() {
		return restoreErr("vantage AS%d's table holds %d prefixes, %d of them the topology's", e.asns[vi], rib.Len(), held)
	}
	return nil
}
