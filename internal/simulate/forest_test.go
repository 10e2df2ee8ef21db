package simulate

import (
	"fmt"
	"testing"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
)

// forestDiff compares two engines' best forests row by row (empty means
// every AS uses the same next hop for every prefix in both). DiffResults
// sees vantage tables and reach counts only; a wrong best at a
// non-vantage AS that happens to keep every vantage entry and every
// reach count intact is visible here and nowhere else. It also holds
// each engine to its own books: the reach counter of a prefix equals the
// routed cells of its row, and the reverse index addresses the slot it
// claims to.
func forestDiff(a, b *Engine) []string {
	var diffs []string
	add := func(format string, args ...interface{}) {
		if len(diffs) < 20 {
			diffs = append(diffs, fmt.Sprintf(format, args...))
		}
	}
	if len(a.e.prefixes) != len(b.e.prefixes) {
		add("forest: %d prefixes vs %d", len(a.e.prefixes), len(b.e.prefixes))
	}
	for pi, p := range a.e.prefixes {
		qi, ok := b.e.prefixIdx[p]
		if !ok {
			add("forest %v missing in b", p)
			continue
		}
		ra, rb := a.e.track[pi], b.e.track[qi]
		if len(ra) != len(rb) {
			add("forest %v: row length %d vs %d", p, len(ra), len(rb))
			continue
		}
		for i := range ra {
			if ra[i] != rb[i] {
				add("forest %v at AS %v: best from %d vs %d", p, a.e.asns[i], ra[i], rb[i])
			}
		}
	}
	for _, en := range []*Engine{a, b} {
		e := en.e
		for pi, p := range e.prefixes {
			if en.unconv[p] {
				continue
			}
			routed := 0
			for _, f := range e.track[pi] {
				if f != trackNone {
					routed++
				}
			}
			if int64(routed) != e.reachCounts[pi] {
				add("reach %v: counter %d, forest routes %d ASes", p, e.reachCounts[pi], routed)
			}
		}
		for u := range e.nbrs {
			if len(e.back[u]) != len(e.nbrs[u]) || int(e.csrOff[u+1]-e.csrOff[u]) != len(e.nbrs[u]) {
				add("index: AS %v has %d neighbors, %d reverse slots, CSR span %d",
					e.asns[u], len(e.nbrs[u]), len(e.back[u]), e.csrOff[u+1]-e.csrOff[u])
				continue
			}
			for j, v := range e.nbrs[u] {
				if s := e.back[u][j]; s < 0 || int(s) >= len(e.nbrs[v]) || e.nbrs[v][s] != int32(u) {
					add("index: back[%v][%d] = %d does not address %v in %v's adjacency", e.asns[u], j, s, e.asns[u], e.asns[v])
				}
			}
		}
	}
	return diffs
}

// requireSameForest fails the test when got's forest differs from a
// fresh engine's on the mutated topology.
func requireSameForest(t *testing.T, name string, got *Engine, mutated *topogen.Topology, opts Options) *Engine {
	t.Helper()
	want, err := NewEngine(mutated, opts)
	if err != nil {
		t.Fatalf("%s: engine on the mutated topology: %v", name, err)
	}
	if diffs := forestDiff(got, want); len(diffs) > 0 {
		t.Fatalf("%s: forest differs from a fresh engine's on the mutated topology: %v", name, diffs[:min(3, len(diffs))])
	}
	return want
}

// deferredShapeCases drives the two deferral differentials: over five
// seeds it asks shape for a batch at every non-vantage AS and prefix (up
// to 30 ASes per seed, one prefix each, so the cases spread over the
// graph), applies the batch on a clone and holds the clone's forest rows
// and tables to a fresh engine's on the mutated topology. probe holds
// every AS's full candidate set.
func deferredShapeCases(t *testing.T, shape func(topo *topogen.Topology, probe *bgp.RIB, v bgp.ASN, p netx.Prefix) []Event) {
	total := 0
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		topo, opts := buildTestTopo(t, 120, seed)
		vantage := make(map[bgp.ASN]bool)
		for _, asn := range opts.VantagePoints {
			vantage[asn] = true
		}
		probe, err := Run(topo, Options{VantagePoints: topo.Order})
		if err != nil {
			t.Fatal(err)
		}
		base, err := NewEngine(topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		prefixes := append([]netx.Prefix(nil), base.e.prefixes...)
		cases := 0
		for _, v := range topo.Order {
			if vantage[v] || cases >= 30 {
				continue
			}
			for _, p := range prefixes {
				events := shape(topo, probe.Tables[v], v, p)
				if events == nil {
					continue
				}
				sc := Scenario{Name: fmt.Sprintf("seed%d/AS%v/%v", seed, v, p), Events: events}
				mutated := topo.Clone()
				if err := sc.ApplyToTopology(mutated); err != nil {
					t.Fatal(err)
				}
				clone := base.Clone()
				if _, err := clone.Apply(sc); err != nil {
					t.Fatalf("%s: %v", sc.Name, err)
				}
				want := requireSameForest(t, sc.Name, clone, mutated, opts)
				if diffs := DiffResults(clone.Result(), want.Result()); len(diffs) > 0 {
					t.Fatalf("%s: tables differ from full resimulation: %v", sc.Name, diffs[:min(3, len(diffs))])
				}
				cases++
				break
			}
		}
		total += cases
	}
	if total < 25 {
		t.Fatalf("only %d eligible (AS, prefix) pairs over five seeds; the generator no longer produces the shape", total)
	}
}

// TestDeferredSessionReplayedOnLateMaterialize is the shape that breaks
// "skip the AS when the changed candidate cannot win" without a replay.
// v's best for p comes from a customer or peer f at local-pref L and v
// also hears p from a provider n. The batch first re-prices n's route to
// L-1 — it cannot displace the best, so v is not materialized — then
// demotes f's route to L-5. That second edit materializes v; a
// materialization from pre-event candidates alone would still hold n's
// route at its old preference and pick among the others. Tables and
// reach counts cannot see it (v is not a vantage point and keeps a
// route): the forest row is compared.
func TestDeferredSessionReplayedOnLateMaterialize(t *testing.T) {
	deferredShapeCases(t, func(topo *topogen.Topology, probe *bgp.RIB, v bgp.ASN, p netx.Prefix) []Event {
		best := probe.Best(p)
		if best == nil || best.IsLocal() || best.LocalPref < 6 {
			return nil
		}
		f, _ := best.NextHopAS()
		if rel := topo.Graph.Rel(v, f); rel != asgraph.RelCustomer && rel != asgraph.RelPeer {
			return nil
		}
		for _, n := range topo.Graph.Providers(v) {
			if probe.CandidateFrom(p, n) != nil {
				return []Event{
					SetPrefixLocalPref(v, n, p, best.LocalPref-1),
					SetPrefixLocalPref(v, f, p, best.LocalPref-5),
				}
			}
		}
		return nil
	})
}

// TestDeferredLinkFailureNotInstalledLate is the link-event sibling: one
// batch fails the link carrying a non-best candidate of v (a withdrawal
// that cannot move the best, so v is not materialized) and then the link
// carrying v's best. The materialization the second failure forces
// starts from pre-event candidates, which include the one over the first
// link; nothing may select a route over a link that is down.
func TestDeferredLinkFailureNotInstalledLate(t *testing.T) {
	deferredShapeCases(t, func(_ *topogen.Topology, probe *bgp.RIB, v bgp.ASN, p netx.Prefix) []Event {
		best, cands := probe.Best(p), probe.Candidates(p)
		if best == nil || best.IsLocal() || len(cands) < 3 {
			// Three candidates: one survives both failures, so the late
			// selection has something to get wrong.
			return nil
		}
		f, _ := best.NextHopAS()
		for _, c := range cands {
			if n, _ := c.NextHopAS(); n != f {
				return []Event{FailLink(v, n), FailLink(v, f)}
			}
		}
		return nil
	})
}
