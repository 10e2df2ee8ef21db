package simulate

import (
	"fmt"
	"sync"

	"github.com/policyscope/policyscope/internal/bgp"
)

// checkInvariants holds an engine at rest to its own books and reports
// the first entry that does not balance. It is the one forest checker:
// stored state passes it on the way in from disk (RestoreEngine), live
// engines pass it after every Apply and every Rollback of the
// differentials (TestRollbackIsTotal, FuzzApplyRollback).
//
//   - The prefix index, the forest, the reach counts and the topology's
//     prefix ownership list the same prefixes, one row per prefix and one
//     cell per AS.
//   - In every converged prefix's row the origin, and nobody else, holds
//     its own index; every other hop is a current neighbor; following hops
//     from any routed AS ends at the origin; the routed ASes number the
//     reach count. (A prefix that exhausted its budget has a
//     mid-oscillation row that promises nothing.)
//   - Every vantage's hop is the next-hop AS of its table's best route,
//     and no table holds an entry for a prefix the topology lacks.
//   - The adjacency is the graph's: every AS's neighbor row lists its
//     graph neighbors ascending, its session records are what newSession
//     derives, its reverse index points back at it, and the CSR offsets
//     span the rows.
//   - No checkpoint is armed — callers ask between scenarios — and the
//     spent journal is empty.
func (en *Engine) checkInvariants() error { return en.checkState(nil) }

// checkState is checkInvariants with a step run on each forest row just
// before the row is checked, by the worker that checks it: RestoreEngine
// decodes the stored row there, while it is the one in cache.
func (en *Engine) checkState(prepare func(pi int) error) error {
	e := en.e
	if len(e.track) != len(e.prefixes) || len(e.reachCounts) != len(e.prefixes) ||
		len(e.prefixIdx) != len(e.prefixes) || len(e.topo.PrefixOrigin) != len(e.prefixes) ||
		(e.trackShared != nil && len(e.trackShared) != len(e.prefixes)) {
		return fmt.Errorf("%d prefixes indexed: %d forest rows, %d reach counts, %d index entries, %d share marks, %d prefixes originated",
			len(e.prefixes), len(e.track), len(e.reachCounts), len(e.prefixIdx), len(e.trackShared), len(e.topo.PrefixOrigin))
	}
	for pi, p := range e.prefixes {
		if at, ok := e.prefixIdx[p]; !ok || at != pi {
			return fmt.Errorf("prefix %v sits at %d, the index says %d (%v)", p, pi, at, ok)
		}
		if _, ok := e.topo.PrefixOrigin[p]; !ok {
			return fmt.Errorf("prefix %v is indexed but nobody originates it", p)
		}
	}
	if j := e.journal; j != nil {
		return fmt.Errorf("a checkpoint is armed (%d records)", len(j.log))
	}
	if err := e.checkAdjacency(); err != nil {
		return err
	}
	if j := e.spent; j != nil && len(j.log)+len(j.rows)+len(j.entries)+len(j.links)+len(j.policies)+len(j.prefixes) > 0 {
		return fmt.Errorf("the spent journal holds records: log %d, rows %d, entries %d, links %d, policies %d, prefixes %d",
			len(j.log), len(j.rows), len(j.entries), len(j.links), len(j.policies), len(j.prefixes))
	}

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
	// Rows, then the tables against them. A table is checked whole by one
	// worker: in prefix order its entries sit in the order they were
	// decoded, where a pass across the tables per prefix would miss the
	// cache on every one.
	forEachIndex(e, len(e.prefixes), perWorker(func() (func(int), func()) {
		ws := newRowCheck(len(e.asns))
		return func(pi int) {
			if prepare != nil {
				if err := prepare(pi); err != nil {
					fail(err)
					return
				}
			}
			if en.unconv[e.prefixes[pi]] {
				return
			}
			if err := e.checkRow(pi, ws); err != nil {
				fail(err)
			}
		}, func() {}
	}))
	if first != nil {
		return first
	}
	vantages := make([]int, 0, len(e.tables))
	for vi := range e.tables {
		vantages = append(vantages, vi)
	}
	forEachIndex(e, len(vantages), perWorker(func() (func(int), func()) {
		return func(k int) {
			if err := en.checkTable(vantages[k]); err != nil {
				fail(err)
			}
		}, func() {}
	}))
	return first
}

// checkAdjacency holds the neighbor rows, session records, reverse index
// and CSR offsets to the graph and the policies they are derived from.
func (e *engine) checkAdjacency() error {
	n := len(e.asns)
	if len(e.nbrs) != n || len(e.sess) != n || len(e.back) != n || len(e.csrOff) != n+1 {
		return fmt.Errorf("%d ASes: %d neighbor rows, %d session rows, %d reverse-index rows, %d CSR offsets",
			n, len(e.nbrs), len(e.sess), len(e.back), len(e.csrOff))
	}
	var nbs []bgp.ASN
	off := int32(0)
	for i, asn := range e.asns {
		nbs = e.topo.Graph.AppendNeighbors(nbs[:0], asn)
		nbrs, sess, back := e.nbrs[i], e.sess[i], e.back[i]
		if len(nbrs) != len(nbs) || len(sess) != len(nbs) || len(back) != len(nbs) || e.csrOff[i] != off {
			return fmt.Errorf("AS%d has %d neighbors: rows of %d, %d and %d at CSR offset %d, want %d",
				asn, len(nbs), len(nbrs), len(sess), len(back), e.csrOff[i], off)
		}
		for j, nb := range nbs {
			v := nbrs[j]
			if v < 0 || int(v) >= n || e.asns[v] != nb {
				return fmt.Errorf("AS%d: neighbor slot %d holds index %d, the graph says AS%d", asn, j, v, nb)
			}
			if want := e.newSession(e.pols[i], nb, e.topo.Graph.Rel(asn, nb)); sess[j] != want {
				return fmt.Errorf("AS%d: session record of AS%d is %+v, want %+v", asn, nb, sess[j], want)
			}
			if b := back[j]; b < 0 || int(b) >= len(e.nbrs[v]) || e.nbrs[v][b] != int32(i) {
				return fmt.Errorf("AS%d: reverse index of AS%d is %d, which is not AS%d's slot", asn, nb, b, asn)
			}
		}
		off += int32(len(nbs))
	}
	if e.csrOff[n] != off {
		return fmt.Errorf("CSR offsets end at %d, the rows hold %d", e.csrOff[n], off)
	}
	return nil
}

// rowCheck is one worker's scratch space for checkRow.
type rowCheck struct {
	// done[i] == pi+1 once AS i is known to reach prefix pi's origin.
	done []int32
	// hop[i] is the hop of AS i this worker last found in i's adjacency:
	// an AS keeps to a few next hops across prefixes, so most cells cost a
	// compare and not a search.
	hop []int32
}

func newRowCheck(n int) *rowCheck {
	ws := &rowCheck{done: make([]int32, n), hop: make([]int32, n)}
	for i := range ws.hop {
		ws.hop[i] = trackNone
	}
	return ws
}

// checkRow holds prefix pi's forest row against the topology and the
// reach counter.
func (e *engine) checkRow(pi int, ws *rowCheck) error {
	prefix, row := e.prefixes[pi], e.track[pi]
	if len(row) != len(e.asns) {
		return fmt.Errorf("forest row %v has %d cells for %d ASes", prefix, len(row), len(e.asns))
	}
	origin := int32(e.idx[e.topo.PrefixOrigin[prefix]])
	if row[origin] != origin {
		return fmt.Errorf("forest row %v: origin AS%d's hop is %d, not itself", prefix, e.asns[origin], row[origin])
	}
	done, stamp := ws.done, int32(pi)+1
	done[origin] = stamp
	routed := 0
	for i, from := range row {
		switch {
		case from == trackNone:
			continue
		case from == int32(i):
			if from != origin {
				return fmt.Errorf("forest row %v: AS%d originates, the origin is AS%d", prefix, e.asns[i], e.asns[origin])
			}
		case from != ws.hop[i]:
			if slotOf(e.nbrs[i], from) < 0 {
				return fmt.Errorf("forest row %v: AS%d's hop %d is not a neighbor", prefix, e.asns[i], from)
			}
			ws.hop[i] = from
		}
		routed++
		if done[i] == stamp {
			continue
		}
		// Walk to an AS already known good; more steps than ASes is a cycle.
		steps := 0
		for j := int32(i); done[j] != stamp; j = row[j] {
			if row[j] == trackNone {
				return fmt.Errorf("forest row %v: hop from AS%d leads to AS%d, which has no route", prefix, e.asns[i], e.asns[j])
			}
			if steps++; steps > len(row) {
				return fmt.Errorf("forest row %v: hops from AS%d cycle", prefix, e.asns[i])
			}
		}
		for j := int32(i); done[j] != stamp; j = row[j] {
			done[j] = stamp
		}
	}
	if int64(routed) != e.reachCounts[pi] {
		return fmt.Errorf("forest row %v routes %d ASes, reach count is %d", prefix, routed, e.reachCounts[pi])
	}
	return nil
}

// checkTable holds vantage vi's table against the forest: for every
// converged prefix the vantage's hop is the next-hop AS of the table's
// best route (none where the table has no entry, itself where the route
// is local), and the table holds no entry beyond the topology's prefixes.
func (en *Engine) checkTable(vi int) error {
	e := en.e
	rib := e.tables[vi].rib
	held := 0
	for pi, prefix := range e.prefixes {
		best, from := rib.Best(prefix), e.track[pi][vi]
		if best != nil {
			held++
		}
		if en.unconv[prefix] {
			continue
		}
		switch {
		case best == nil:
			if from != trackNone {
				return fmt.Errorf("forest row %v: vantage AS%d has a hop but no table entry", prefix, e.asns[vi])
			}
		case best.IsLocal():
			if from != int32(vi) {
				return fmt.Errorf("forest row %v: vantage AS%d originates the route but the row says otherwise", prefix, e.asns[vi])
			}
		default:
			nh, _ := best.NextHopAS()
			if from == trackNone || from == int32(vi) || e.asns[from] != nh {
				return fmt.Errorf("forest row %v: vantage AS%d's best route comes from AS%d, the row disagrees", prefix, e.asns[vi], nh)
			}
		}
	}
	if held != rib.Len() {
		return fmt.Errorf("vantage AS%d's table holds %d prefixes, %d of them the topology's", e.asns[vi], rib.Len(), held)
	}
	return nil
}
