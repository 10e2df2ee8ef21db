package simulate

// The reference engine: a faithful port of the pre-refactor propagation
// loop — per-AS map candidate stores, bgp.Best selection, per-hop heap
// Route/Path allocation, Upsert-driven table capture. It exists to prove
// the optimized engine (flat CSR store, arenas, atom-sharded
// convergence) is byte-identical, and to anchor the BenchmarkConverge*
// speedup/allocation gates against the real pre-optimization cost.

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
)

// legacyState is the original per-prefix scratch: map candidate stores.
type legacyState struct {
	version  uint32
	seen     []uint32
	cands    []map[int32]*bgp.Route
	best     []*bgp.Route
	bestFrom []int32
	inQueue  []bool
	queue    []int32
	touched  []int32
}

func newLegacyState(n int) *legacyState {
	return &legacyState{
		seen:     make([]uint32, n),
		cands:    make([]map[int32]*bgp.Route, n),
		best:     make([]*bgp.Route, n),
		bestFrom: make([]int32, n),
		inQueue:  make([]bool, n),
	}
}

func (st *legacyState) reset() {
	st.version++
	st.queue = st.queue[:0]
	st.touched = st.touched[:0]
}

func (st *legacyState) touch(i int32) {
	if st.seen[i] != st.version {
		st.seen[i] = st.version
		st.cands[i] = nil
		st.best[i] = nil
		st.bestFrom[i] = trackNone
		st.inQueue[i] = false
		st.touched = append(st.touched, i)
	}
}

func (st *legacyState) push(i int32) {
	if !st.inQueue[i] {
		st.inQueue[i] = true
		st.queue = append(st.queue, i)
	}
}

func legacyReselect(e *engine, st *legacyState, v int32) {
	keys := make([]int32, 0, len(st.cands[v]))
	for k := range st.cands[v] {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	cands := make([]*bgp.Route, 0, len(keys))
	for _, k := range keys {
		cands = append(cands, st.cands[v][k])
	}
	newBest := bgp.Best(cands, e.depth)
	from := trackNone
	for i, r := range cands {
		if r == newBest {
			from = keys[i]
			break
		}
	}
	if routesEquivalent(newBest, st.best[v]) {
		st.bestFrom[v] = from
		return
	}
	st.best[v] = newBest
	st.bestFrom[v] = from
	st.push(v)
}

func legacyWithdraw(st *legacyState, u, v int32) bool {
	if st.seen[v] != st.version || st.cands[v] == nil {
		return false
	}
	if _, ok := st.cands[v][u]; !ok {
		return false
	}
	delete(st.cands[v], u)
	return true
}

func legacyPropagate(e *engine, st *legacyState, prefix netx.Prefix) bool {
	origin, ok := e.topo.PrefixOrigin[prefix]
	if !ok {
		return true
	}
	oi := int32(e.idx[origin])
	st.reset()
	st.touch(oi)
	st.best[oi] = localRoute(nil, prefix, origin)
	st.bestFrom[oi] = oi
	st.push(oi)

	budget := e.budget * (len(e.asns) + e.topo.Graph.NumEdges())
	activations := 0
	for len(st.queue) > 0 {
		activations++
		if activations > budget {
			return false
		}
		u := st.queue[0]
		st.queue = st.queue[1:]
		st.inQueue[u] = false
		best := st.best[u]
		for j, v := range e.nbrs[u] {
			rel := e.sess[u][j].rel
			if best != nil && e.shouldExport(u, v, rel, best, prefix) {
				vASN := e.asns[v]
				if best.Path.Contains(vASN) || vASN == e.topo.PrefixOrigin[best.Prefix] {
					if legacyWithdraw(st, u, v) {
						legacyReselect(e, st, v)
					}
					continue
				}
				// No slot: the reference asks topogen for every route.
				r := e.buildAnnouncement(u, v, -1, rel, best, prefix, e.pols[u], e.pols[v], nil)
				st.touch(v)
				if st.cands[v] == nil {
					st.cands[v] = make(map[int32]*bgp.Route, 4)
				}
				prev := st.cands[v][u]
				if prev != nil && sameRoute(prev, r) {
					continue
				}
				st.cands[v][u] = r
				legacyReselect(e, st, v)
			} else {
				if legacyWithdraw(st, u, v) {
					legacyReselect(e, st, v)
				}
			}
		}
	}
	return true
}

// legacyTable is a vantage table behind its lock, like the original
// engine's tableSlot.
type legacyTable struct {
	mu  sync.Mutex
	rib *bgp.RIB
}

// legacyCapture installs converged state the pre-refactor way: RIB
// Upserts in deterministic candidate order.
func legacyCapture(e *engine, st *legacyState, prefix netx.Prefix, tables map[int]*legacyTable, reach []int64, rows [][]int32) {
	pi := e.prefixIdx[prefix]
	if rows != nil {
		row := rows[pi]
		if row == nil {
			row = make([]int32, len(e.asns))
			rows[pi] = row
		}
		for i := range row {
			row[i] = trackNone
		}
		for _, i := range st.touched {
			row[i] = st.bestFrom[i]
		}
	}
	n := 0
	for _, i := range st.touched {
		if st.best[i] != nil || len(st.cands[i]) > 0 {
			n++
		}
		slot, ok := tables[int(i)]
		if !ok {
			continue
		}
		slot.mu.Lock()
		if st.best[i] != nil && st.best[i].IsLocal() {
			slot.rib.Upsert(e.asns[i], st.best[i])
		}
		keys := make([]int32, 0, len(st.cands[i]))
		for k := range st.cands[i] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		for _, k := range keys {
			slot.rib.Upsert(e.asns[k], st.cands[i][k])
		}
		slot.mu.Unlock()
	}
	reach[pi] = int64(n)
}

// legacyRun is the pre-refactor engine: plain per-prefix fixpoints, map
// stores, heap routes, scheduled on the same bounded worker pool the
// original used (so the benchmark comparison is parallel-vs-parallel).
func legacyRun(topo *topogen.Topology, opts Options) (*Result, [][]int32) {
	opts.DisableAtomDedup = true
	e := newEngine(topo, opts)
	tables := make(map[int]*legacyTable, len(opts.VantagePoints))
	for i := range e.vantage {
		rib := bgp.NewRIB(e.asns[i])
		rib.SetDecisionDepth(opts.DecisionDepth)
		tables[i] = &legacyTable{rib: rib}
	}
	res := &Result{
		Tables:     make(map[bgp.ASN]*bgp.RIB, len(tables)),
		ReachCount: make(map[netx.Prefix]int, len(e.prefixes)),
	}
	rows := make([][]int32, len(e.prefixes))
	reach := make([]int64, len(e.prefixes))

	workers := e.workerCount(len(e.prefixes))
	var (
		mu          sync.Mutex
		next        int
		wg          sync.WaitGroup
		unconverged []netx.Prefix
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newLegacyState(len(e.asns))
			for {
				mu.Lock()
				if next >= len(e.prefixes) {
					mu.Unlock()
					return
				}
				p := e.prefixes[next]
				next++
				mu.Unlock()
				if !legacyPropagate(e, st, p) {
					mu.Lock()
					unconverged = append(unconverged, p)
					mu.Unlock()
				}
				legacyCapture(e, st, p, tables, reach, rows)
			}
		}()
	}
	wg.Wait()
	netx.SortPrefixes(unconverged)
	res.Unconverged = unconverged
	for pi, p := range e.prefixes {
		res.ReachCount[p] = int(reach[pi])
	}
	for i, slot := range tables {
		res.Tables[e.asns[i]] = slot.rib
	}
	return res, rows
}

func equivalenceTopo(t testing.TB, n int, seed int64) (*topogen.Topology, []bgp.ASN) {
	t.Helper()
	topo, err := topogen.Generate(topogen.DefaultConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	stride := len(topo.Order) / 24
	if stride == 0 {
		stride = 1
	}
	vantage := make([]bgp.ASN, 0, 24)
	for i := 0; i < len(topo.Order) && len(vantage) < 24; i += stride {
		vantage = append(vantage, topo.Order[i])
	}
	return topo, vantage
}

// TestEngineMatchesLegacyReference proves the optimized engine —
// atom-sharded and with dedup disabled — produces byte-identical
// tables, reach counts, convergence status and best forests to the
// pre-refactor reference, across seeds.
func TestEngineMatchesLegacyReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			topo, vantage := equivalenceTopo(t, 300, seed)
			opts := Options{VantagePoints: vantage}
			want, wantRows := legacyRun(topo, opts)

			for _, mode := range []struct {
				name string
				opts Options
			}{
				{"atoms", opts},
				{"noDedup", Options{VantagePoints: vantage, DisableAtomDedup: true}},
			} {
				got, err := Run(topo, mode.opts)
				if err != nil {
					t.Fatalf("%s: %v", mode.name, err)
				}
				if diffs := DiffResults(want, got); len(diffs) > 0 {
					t.Fatalf("%s differs from legacy reference:\n%s", mode.name, diffs[0])
				}
			}

			// The best forest drives the scenario engine; it must match
			// the reference row for row.
			en, err := NewEngine(topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			e := en.e
			for pi, p := range e.prefixes {
				ref := wantRows[pi]
				got := e.track[pi]
				wantPi, ok := e.prefixIdx[p]
				if !ok || wantPi != pi {
					t.Fatalf("prefix index inconsistent for %v", p)
				}
				for i := range ref {
					if ref[i] != got[i] {
						t.Fatalf("seed %d prefix %v: track[%d] = %d, reference %d",
							seed, p, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// TestEngineMatchesLegacyAblations covers the ablation knobs: truncated
// decision depth (which disables atom dedup) and import-policy-free
// propagation.
func TestEngineMatchesLegacyAblations(t *testing.T) {
	topo, vantage := equivalenceTopo(t, 200, 7)
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"depthLocalPref", Options{VantagePoints: vantage, DecisionDepth: bgp.StepLocalPref}},
		{"depthPathLen", Options{VantagePoints: vantage, DecisionDepth: bgp.StepASPathLen}},
		{"noImport", Options{VantagePoints: vantage, IgnoreImportPolicy: true}},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			want, _ := legacyRun(topo, mode.opts)
			got, err := Run(topo, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			if diffs := DiffResults(want, got); len(diffs) > 0 {
				t.Fatalf("differs from legacy reference:\n%s", diffs[0])
			}
		})
	}
}

// TestAtomPartitionSanity pins the partition shape the speedup relies
// on: strictly fewer classes than prefixes, every prefix covered, and
// members sharing their class origin.
func TestAtomPartitionSanity(t *testing.T) {
	topo, _ := equivalenceTopo(t, 300, 5)
	e := newEngine(topo, Options{})
	if e.atoms == nil {
		t.Fatal("atom index not built")
	}
	stats := e.atomStats()
	if stats.Classes <= 0 || stats.Classes >= stats.Prefixes {
		t.Fatalf("partition did not collapse: %+v", stats)
	}
	covered := 0
	for ci, members := range e.atoms.classes {
		if len(members) == 0 {
			t.Fatalf("class %d empty", ci)
		}
		origin := topo.PrefixOrigin[members[0]]
		for _, p := range members {
			covered++
			if topo.PrefixOrigin[p] != origin {
				t.Fatalf("class %d spans origins %v and %v", ci, origin, topo.PrefixOrigin[p])
			}
			if e.atoms.classOf[p] != ci {
				t.Fatalf("classOf mismatch for %v", p)
			}
		}
	}
	if covered != stats.Prefixes {
		t.Fatalf("partition covers %d of %d prefixes", covered, stats.Prefixes)
	}
}
