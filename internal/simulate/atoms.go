package simulate

import (
	"github.com/policyscope/policyscope/internal/netx"
)

// Atom-sharded convergence.
//
// The paper's policy-atoms observation (Section 6, internal/atoms) is
// that routing policy treats most prefixes of an origin identically. The
// cold-convergence path exploits it: prefixes are partitioned into
// propagation-equivalence classes — same origin AS, same keyed per-prefix
// export policy (topogen.PrefixSignatures) — and only one representative
// per class runs the full per-prefix fixpoint. Every other member is then
// re-converged *from the representative's converged state*: its scratch
// state is copied (borrowing the representative's routes, which differ
// only in the Prefix attribute), the hash-drawn per-prefix policies that
// can differ inside a class (per-prefix local preferences, atypical
// subsets, transit selective announcement — topogen's "sensitive
// sessions") are re-evaluated, and only the sessions whose treatment
// actually differs are re-seeded into the standard activation loop.
//
// Correctness: the generator's preference assignments satisfy the
// Gao–Rexford stability conditions, so each prefix's converged state is
// the unique fixpoint of its policy system. The member drain starts from
// a state that satisfies every session constraint except the re-seeded
// deviations (the representative's fixpoint agrees with the member's
// policy system everywhere else) and runs the same activation loop to
// quiescence, hence it lands on that unique fixpoint — the same state a
// from-scratch propagation produces. Budget exhaustion (only possible
// with adversarial preference overrides) falls back to the from-scratch
// path, as do classes whose representative fails to converge, so
// mid-oscillation captures stay byte-identical to the unsharded engine.
// The equivalence property tests (engine_equivalence_test.go) verify all
// of this against a reference implementation across seeds.

// atomIndex is the propagation-equivalence partition of an engine's
// prefixes plus the sensitive-session lists fan-out re-evaluates.
type atomIndex struct {
	classOf map[netx.Prefix]int
	classes [][]netx.Prefix // members in prefix Compare order

	// impSess are (receiver, announcer) AS-index pairs whose import
	// local preference can vary by prefix; empty when import policy is
	// ignored. trnSess are (transit AS, provider) pairs gated by the
	// per-prefix transit-selective hash.
	impSess [][2]int32
	trnSess [][2]int32
}

// buildAtomIndex partitions the engine's prefixes by policy signature.
func buildAtomIndex(e *engine) *atomIndex {
	sigs := e.topo.PrefixSignatures()
	bySig := make(map[string]int)
	ai := &atomIndex{classOf: make(map[netx.Prefix]int, len(e.prefixes))}
	for _, p := range e.prefixes { // Compare order → members stay sorted
		sig := sigs[p]
		ci, ok := bySig[sig]
		if !ok {
			ci = len(ai.classes)
			bySig[sig] = ci
			ai.classes = append(ai.classes, nil)
		}
		ai.classes[ci] = append(ai.classes[ci], p)
		ai.classOf[p] = ci
	}
	if !e.opts.IgnoreImportPolicy {
		for _, s := range e.topo.ImportSensitiveSessions() {
			a, aok := e.idx[s.AS]
			b, bok := e.idx[s.Neighbor]
			if aok && bok {
				ai.impSess = append(ai.impSess, [2]int32{int32(a), int32(b)})
			}
		}
	}
	for _, s := range e.topo.TransitSelectivePairs() {
		a, aok := e.idx[s.AS]
		b, bok := e.idx[s.Neighbor]
		if aok && bok {
			ai.trnSess = append(ai.trnSess, [2]int32{int32(a), int32(b)})
		}
	}
	mAtomPrefixes.Set(int64(len(e.prefixes)))
	mAtomClasses.Set(int64(len(ai.classes)))
	return ai
}

// runAtoms converges the requested prefixes atom-sharded: one full
// propagation per class touched by the request, then a deviation drain
// per additional member. Prefixes outside the partition (re-announced
// after the index was built) run the plain path.
func (e *engine) runAtoms(prefixes []netx.Prefix, fail func(netx.Prefix)) {
	// Group the request by class, preserving determinism: groups are
	// ordered by first-appearance of their class in the sorted request,
	// members sorted within.
	groups := make([][]netx.Prefix, 0, len(prefixes))
	groupOf := make(map[int]int)
	sorted := append([]netx.Prefix(nil), prefixes...)
	netx.SortPrefixes(sorted)
	for _, p := range sorted {
		ci, ok := e.atoms.classOf[p]
		if !ok {
			groups = append(groups, []netx.Prefix{p})
			continue
		}
		gi, ok := groupOf[ci]
		if !ok {
			gi = len(groups)
			groupOf[ci] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], p)
	}

	forEachIndex(e, len(groups), perWorker(func() (func(int), func()) {
		rep, mem := e.getState(), e.getState()
		return func(i int) { e.runGroup(rep, mem, groups[i], fail) },
			func() { e.putState(rep); e.putState(mem) }
	}))
}

// runGroup converges one class group: full propagation for the first
// member, deviation fan-out for the rest.
func (e *engine) runGroup(rep, mem *workerState, group []netx.Prefix, fail func(netx.Prefix)) {
	ok := e.propagate(rep, group[0])
	e.capture(rep, group[0])
	if !ok {
		fail(group[0])
		// An unconverged representative means the class preference system
		// is outside the safe regime; fall back to the from-scratch path
		// so mid-oscillation captures match the unsharded engine exactly.
		for _, p := range group[1:] {
			if !e.propagate(rep, p) {
				fail(p)
			}
			e.capture(rep, p)
		}
		return
	}
	for _, p := range group[1:] {
		if e.fanout(rep, mem, group[0], p) {
			e.capture(mem, p)
			continue
		}
		// Deviation drain exhausted its budget: from-scratch fallback.
		if !e.propagate(mem, p) {
			fail(p)
		}
		e.capture(mem, p)
	}
}

// fanout re-converges member from the representative's converged state
// held in rep. It returns false when the drain exhausts the activation
// budget (the caller then falls back to a from-scratch propagation).
// On success mem holds member's converged state, ready for capture.
func (e *engine) fanout(rep, mem *workerState, repPrefix, member netx.Prefix) bool {
	mem.reset()
	mem.curPrefix = member
	mem.originIdx = rep.originIdx

	// Copy the representative's per-AS state. The Route values are
	// borrowed (they live in rep's arenas, untouched until the whole
	// group is done); capture rewrites their Prefix on the way into the
	// vantage tables.
	for _, i := range rep.touched {
		mem.touch(i)
		mem.best[i] = rep.best[i]
		mem.bestFrom[i] = rep.bestFrom[i]
		copy(mem.cs.slots[mem.cs.off[i]:mem.cs.off[i+1]], rep.cs.slots[rep.cs.off[i]:rep.cs.off[i+1]])
		if ex := rep.cs.extra[i]; len(ex) > 0 {
			mem.cs.extra[i] = append(mem.cs.extra[i][:0], ex...)
		}
		mem.cs.count[i] = rep.cs.count[i]
	}

	// Re-evaluate the hash-drawn import policies: wherever the member's
	// effective local preference differs from the representative's and a
	// candidate is installed, rebuild it and re-select.
	if !e.opts.IgnoreImportPolicy {
		for _, s := range e.atoms.impSess {
			v, u := s[0], s[1]
			if mem.seen[v] != mem.version {
				continue // v unreachable in this class
			}
			cur := mem.cs.get(e.nbrs[v], v, u)
			if cur == nil {
				continue
			}
			polV := e.pols[v]
			vASN, uASN := e.asns[v], e.asns[u]
			lpNew := e.topo.EffectiveLocalPrefWith(polV, vASN, uASN, member)
			if lpNew == cur.LocalPref {
				continue
			}
			r := *cur
			r.LocalPref = lpNew
			nr := mem.routes.alloc()
			*nr = r
			mem.cs.set(e.nbrs[v], v, u, nr)
			e.reselect(mem, v)
		}
	}

	// Re-evaluate the transit-selective export gates: wherever the hash
	// fires differently for the member, redo the session's announcement
	// or withdrawal.
	for _, s := range e.atoms.trnSess {
		u, v := s[0], s[1]
		if mem.seen[u] != mem.version {
			continue
		}
		pol := e.pols[u]
		if pol == nil || pol.Export.TransitSelective <= 0 {
			continue
		}
		exNew := pol.Export.TransitExcluded(e.asns[u], member, e.asns[v])
		exOld := pol.Export.TransitExcluded(e.asns[u], repPrefix, e.asns[v])
		if exNew == exOld {
			continue
		}
		e.reseedSession(mem, u, v)
	}

	return e.drain(mem)
}

// reseedSession re-runs the export step of one directed session u→v in
// the current state (one iteration of exportFrom restricted to v).
func (e *engine) reseedSession(st *workerState, u, v int32) {
	j := slotOf(e.nbrs[u], v)
	if j < 0 {
		return
	}
	relVtoU := e.sess[u][j].rel
	best := st.best[u]
	if best != nil && e.shouldExport(u, v, relVtoU, best, st.curPrefix) {
		e.announce(st, u, v, relVtoU, best)
	} else {
		e.withdraw(st, u, v)
	}
}

// AtomStats summarizes the engine's propagation-equivalence partition.
type AtomStats struct {
	Prefixes int
	Classes  int
	// LargestClass is the biggest member count.
	LargestClass int
	// ImportSensitiveSessions / TransitSelectivePairs size the per-member
	// deviation scan.
	ImportSensitiveSessions int
	TransitSelectivePairs   int
}

// Atoms reports the partition the engine converged with (zero value when
// dedup is disabled).
func (en *Engine) Atoms() AtomStats { return en.e.atomStats() }

func (e *engine) atomStats() AtomStats {
	if e.atoms == nil {
		return AtomStats{Prefixes: len(e.prefixes)}
	}
	st := AtomStats{
		Prefixes:                len(e.prefixes),
		Classes:                 len(e.atoms.classes),
		ImportSensitiveSessions: len(e.atoms.impSess),
		TransitSelectivePairs:   len(e.atoms.trnSess),
	}
	for _, c := range e.atoms.classes {
		if len(c) > st.LargestClass {
			st.LargestClass = len(c)
		}
	}
	return st
}
