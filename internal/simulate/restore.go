package simulate

import (
	"errors"
	"fmt"

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

	// Every cell becomes an AS index, and what the rows then say is held to
	// the topology, the reach counts and the tables by the checker live
	// engines pass too.
	e.track = forest
	en := &Engine{e: e, topo: clone, opts: opts, unconv: make(map[netx.Prefix]bool)}
	if err := en.checkState(e.adoptRow); err != nil {
		return nil, restoreErr("%v", err)
	}
	return en, nil
}

// adoptRow rewrites prefix pi's stored row from slot codes into the AS
// indices the engine's forest holds, refusing a code that names no cell
// of the AS's adjacency.
func (e *engine) adoptRow(pi int) error {
	prefix, row := e.prefixes[pi], e.track[pi]
	if len(row) != len(e.asns) {
		return fmt.Errorf("forest row %v has %d cells for %d ASes", prefix, len(row), len(e.asns))
	}
	for i, code := range row {
		switch {
		case code == SlotNone:
			row[i] = trackNone
		case code == SlotOrigin:
			row[i] = int32(i)
		case code < 0 || int(code-slotBase) >= len(e.nbrs[i]):
			return fmt.Errorf("forest row %v: AS%d has no neighbor slot %d", prefix, e.asns[i], code-slotBase)
		default:
			row[i] = e.nbrs[i][code-slotBase]
		}
	}
	return nil
}
