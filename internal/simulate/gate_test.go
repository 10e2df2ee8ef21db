package simulate

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
)

// byDegree lists the topology's ASes, highest degree first.
func byDegree(topo *topogen.Topology) []bgp.ASN {
	out := append([]bgp.ASN(nil), topo.Order...)
	sort.SliceStable(out, func(i, j int) bool { return topo.Graph.Degree(out[i]) > topo.Graph.Degree(out[j]) })
	return out
}

// samplePrefixes picks n of the engine's prefixes, spread over its index.
func samplePrefixes(en *Engine, n int) []netx.Prefix {
	ps := en.e.prefixes
	out := make([]netx.Prefix, 0, n)
	for k := 0; k < n && k < len(ps); k++ {
		out = append(out, ps[k*len(ps)/n])
	}
	return out
}

// recordCounts says what requireSessionRecords found: records of sessions
// priced per prefix, records carrying a tag, and records at an AS whose
// Policy has an Override.
type recordCounts struct{ hashed, tagged, overridden int }

// requireSessionRecords holds every session record of en to the graph and
// to topogen, which defines both rules a record caches. The relationship
// is the graph's. A neighbor the Policy prices per prefix (per-prefix or
// atypical) is hashed, so importAt asks topogen for it. On the sampled
// prefixes the record's local preference is EffectiveLocalPrefWith's
// under the Policy without its Override (the one input a record leaves
// out), and its tag is TagFor's. And importAt — what buildAnnouncement
// prices a route with — agrees with topogen under the Policy as it
// stands, Override and all.
func requireSessionRecords(t *testing.T, name string, en *Engine, sample []netx.Prefix) recordCounts {
	t.Helper()
	e, topo := en.e, en.Topology()
	var n recordCounts
	for v, nbrs := range e.nbrs {
		vASN, pol := e.asns[v], e.pols[v]
		if len(e.sess[v]) != len(nbrs) {
			t.Fatalf("%s: AS%d has %d neighbors and %d session records", name, vASN, len(nbrs), len(e.sess[v]))
		}
		var bare *topogen.Policy // pol without its Override
		if pol != nil {
			cp := *pol
			cp.Override = nil
			bare = &cp
		}
		for j, u := range nbrs {
			uASN, s := e.asns[u], e.sess[v][j]
			if want := topo.Graph.Rel(vASN, uASN); s.rel != want {
				t.Fatalf("%s: AS%d's record of AS%d says %v, the graph %v", name, vASN, uASN, s.rel, want)
			}
			if pol != nil {
				_, perPrefix := pol.Import.PrefixPref[uASN]
				_, atypical := pol.Import.AtypicalPref[uASN]
				if (perPrefix || atypical) && !e.opts.IgnoreImportPolicy && !s.hashed {
					t.Fatalf("%s: AS%d prices AS%d per prefix, its record is not hashed", name, vASN, uASN)
				}
				if pol.Override != nil {
					n.overridden++
				}
			}
			var wantTag bgp.Community
			var wantTagged bool
			if pol != nil && pol.Tagging != nil {
				wantTag, wantTagged = pol.Tagging.TagFor(s.rel, uASN)
			}
			if s.tag != wantTag || s.tagged != wantTagged {
				t.Fatalf("%s: AS%d's record of AS%d tags %v (%v), TagFor %v (%v)", name, vASN, uASN, s.tag, s.tagged, wantTag, wantTagged)
			}
			if s.hashed {
				n.hashed++
			}
			if s.tagged {
				n.tagged++
			}
			for _, p := range sample {
				want, wantBare := uint32(bgp.DefaultLocalPref), uint32(bgp.DefaultLocalPref)
				if !e.opts.IgnoreImportPolicy {
					want = topo.EffectiveLocalPrefWith(pol, vASN, uASN, p)
					wantBare = topo.EffectiveLocalPrefWith(bare, vASN, uASN, p)
				}
				if !s.hashed && s.lp != wantBare {
					t.Fatalf("%s: AS%d's record of AS%d prices %v at %d, topogen at %d", name, vASN, uASN, p, s.lp, wantBare)
				}
				lp, tag, tagged := e.importAt(u, int32(v), int32(j), s.rel.Invert(), pol, p)
				if lp != want || tag != wantTag || tagged != wantTagged {
					t.Fatalf("%s: AS%d imports %v from AS%d at %d tagged %v (%v), topogen says %d tagged %v (%v)",
						name, vASN, p, uASN, lp, tag, tagged, want, wantTag, wantTagged)
				}
			}
		}
	}
	return n
}

// TestSessionRecordsMatchTopogen is the differential for the session
// records: on 3 seeds, the base engine, an engine after each of 48 random
// batches over all seven event kinds (local_pref overrides and the opening
// of new peerings among them) and the same engine rolled back each time
// hold every record to topogen, and the rollback puts back the records of
// an engine nothing was applied to. An engine that ignores import policy
// prices every route at the protocol default.
func TestSessionRecordsMatchTopogen(t *testing.T) {
	var total recordCounts
	opened := 0
	for _, seed := range []int64{1, 2, 3} {
		topo, opts := buildTestTopo(t, 120, seed)
		base, err := NewEngine(topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		sample := samplePrefixes(base, 16)
		n := requireSessionRecords(t, fmt.Sprintf("seed%d/base", seed), base, sample)
		total.hashed += n.hashed
		total.tagged += n.tagged
		untouched, work := base.Clone(), base.Clone()
		rng := rand.New(rand.NewSource(seed))
		fresh := 0
		for trial := 0; trial < 48; trial++ {
			name := fmt.Sprintf("seed%d/trial%d", seed, trial)
			events := randomBatch(t, rng, topo.Clone(), &fresh)
			for _, ev := range events {
				if ev.Kind == EventLinkRestore && topo.Graph.Rel(ev.A, ev.B) == asgraph.RelNone {
					opened++
				}
			}
			work.Checkpoint()
			if _, err := work.Apply(Scenario{Name: name, Events: events}); err != nil {
				t.Fatalf("%s %+v: %v", name, events, err)
			}
			total.overridden += requireSessionRecords(t, name+"/applied", work, sample).overridden
			if !work.Rollback() {
				t.Fatalf("%s: rollback refused", name)
			}
			requireSessionRecords(t, name+"/rolled back", work, sample)
			if !reflect.DeepEqual(work.e.sess, untouched.e.sess) {
				t.Fatalf("%s: the rollback left session records an untouched engine does not have", name)
			}
		}
		if seed == 1 {
			opts.IgnoreImportPolicy = true
			plain, err := NewEngine(topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := requireSessionRecords(t, "ignore-import", plain, sample); n.hashed != 0 {
				t.Fatalf("ignore-import: %d records hashed", n.hashed)
			}
		}
	}
	if total.hashed == 0 || total.tagged == 0 || total.overridden == 0 || opened == 0 {
		t.Fatalf("coverage: %d hashed records, %d tagged, %d under an Override, %d new peerings opened", total.hashed, total.tagged, total.overridden, opened)
	}
}

// candOldUngated is candOld without the export gate: u's pre-event route
// is rebuilt first and the export rules filter it after. It passes no
// slot, so topogen prices the route and not v's record.
func candOldUngated(pr *prefixRecon, v, u int32, cur asgraph.Relationship) *bgp.Route {
	relVtoU := pr.rc.relOld(u, v, cur)
	if relVtoU == asgraph.RelNone {
		return nil
	}
	if pr.row[v] == u {
		return pr.bestOld(v)
	}
	best := pr.bestOld(u)
	if best == nil {
		return nil
	}
	e := pr.rc.e
	if best.Path.Contains(e.asns[v]) || v == pr.originIdx {
		return nil
	}
	var ingress asgraph.Relationship
	if f := pr.row[u]; f != u {
		rel, _ := e.sessionTo(u, f)
		ingress = pr.rc.relOld(u, f, rel)
	}
	if !pr.exportOld(u, v, relVtoU, ingress, best) {
		return nil
	}
	return pr.buildOld(u, v, -1, relVtoU, best)
}

// candNewUngated is candNew for an unmaterialized u without the export
// gate, and without v's record.
func candNewUngated(pr *prefixRecon, v, u int32) *bgp.Route {
	e := pr.rc.e
	relVtoU, _ := e.sessionTo(u, v)
	if relVtoU == asgraph.RelNone {
		return nil
	}
	best, from := pr.bestOld(u), pr.row[u]
	if best == nil || best.Path.Contains(e.asns[v]) || v == pr.originIdx {
		return nil
	}
	var ingress asgraph.Relationship
	if !best.IsLocal() {
		ingress = pr.rc.relAny(u, from)
	}
	if !exportAllowed(e.asns[u], e.asns[v], relVtoU, ingress, best, pr.prefix, e.pols[u]) {
		return nil
	}
	return e.buildAnnouncement(u, v, -1, relVtoU, best, pr.prefix, e.pols[u], e.pols[v], pr.st)
}

// requireGatedCandidates holds candOld and candNew for every directed
// session (u, v) of the sampled prefixes to their ungated versions, on a
// clone of base with ev's policy edit made as Apply makes it and nothing
// re-converged yet — the state reconverge reconstructs from. Where the
// forest says the edited session carries nothing (mayCarry), both must be
// nil: namedPrefixes leaves those prefixes out. It returns how many
// candidates it compared and how many of them were routes.
func requireGatedCandidates(t *testing.T, name string, base *Engine, ev Event, sample []netx.Prefix) (compared, routes int) {
	t.Helper()
	probe := base.Clone()
	e := probe.e
	rc := new(recon)
	rc.reset(e)
	if err := probe.editTopology(rc, ev); err != nil {
		t.Fatal(err)
	}
	n, x := int32(e.idx[ev.Neighbor]), int32(e.idx[ev.AS])
	st := e.getState()
	defer e.putState(st)
	for _, p := range sample {
		st.reset()
		pr := newPrefixRecon(rc, st, p, probe.unconv[p])
		st.curPrefix, st.originIdx = p, pr.originIdx
		for vi, nbrs := range e.nbrs {
			v := int32(vi)
			for j, u := range nbrs {
				cur := e.sess[v][j].rel.Invert()
				got, want := pr.candOld(v, u, cur, int32(j)), candOldUngated(pr, v, u, cur)
				if !routeIdentical(got, want) {
					t.Fatalf("%s %v: candOld(AS%d from AS%d) = %v, ungated %v", name, p, e.asns[v], e.asns[u], got, want)
				}
				rel, vslot := e.sessionTo(u, v)
				gotNew, wantNew := pr.candNew(st, v, u, rel, vslot), candNewUngated(pr, v, u)
				if !routeIdentical(gotNew, wantNew) {
					t.Fatalf("%s %v: candNew(AS%d from AS%d) = %v, ungated %v", name, p, e.asns[v], e.asns[u], gotNew, wantNew)
				}
				compared += 2
				if got != nil {
					routes++
				}
				if gotNew != nil {
					routes++
				}
			}
		}
		if !probe.unconv[p] && !e.mayCarry(e.prefixIdx[p], [][2]int32{{n, x}}) {
			rel, vslot := e.sessionTo(n, x)
			if c := pr.candOld(x, n, rel, vslot); c != nil {
				t.Fatalf("%s %v: left out of the named set, but AS%d held %v from AS%d", name, p, ev.AS, c, ev.Neighbor)
			}
			if c := pr.candNew(st, x, n, rel, vslot); c != nil {
				t.Fatalf("%s %v: left out of the named set, but AS%d now hears %v from AS%d", name, p, ev.AS, c, ev.Neighbor)
			}
		}
	}
	return compared, routes
}

// TestExportGateLocalPrefFlips is the differential for the family the
// export gate prunes most: a neighbor-wide local_pref of 50 and of 200 on
// every session of the two highest-degree ASes, the sweep_policy grid.
// Each flip is applied to an engine that rolls every one back, and its
// Rollback must leave an engine nothing was applied to. A flip inside Gao
// & Rexford's safe orderings (a customer promoted, a peer or provider
// demoted) must leave the tables, reach counts and forest rows a full
// resimulation of the mutated topology has; the others admit more than
// one stable state, and a re-convergence that starts from the old one need
// not land where a cold start does. On 50 sampled prefixes the gated
// candOld and candNew return, for every directed session, the routes
// that rebuilding first and filtering after returns.
func TestExportGateLocalPrefFlips(t *testing.T) {
	topo, opts := buildTestTopo(t, 120, 1)
	base, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	pristine := resultSnapshot(base)
	untouched, work := base.Clone(), base.Clone()
	sample := samplePrefixes(base, 50)
	compared, routes, resims := 0, 0, 0
	for _, as := range byDegree(topo)[:2] {
		for _, nb := range topo.Graph.Neighbors(as) {
			for _, value := range []uint32{50, 200} {
				ev := SetLocalPref(as, nb, value)
				name := fmt.Sprintf("AS%d/AS%d=%d", as, nb, value)
				work.Checkpoint()
				if _, err := work.Apply(Scenario{Name: name, Events: []Event{ev}}); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if customer := topo.Graph.Rel(as, nb) == asgraph.RelCustomer; customer == (value > bgp.DefaultLocalPref) {
					mutated := topo.Clone()
					if _, err := applyEventToTopology(mutated, ev); err != nil {
						t.Fatal(err)
					}
					want := requireSameForest(t, name, work, mutated, opts)
					if diffs := DiffResults(work.Result(), want.Result()); len(diffs) > 0 {
						t.Fatalf("%s: incremental differs from full resimulation: %v", name, diffs[:min(3, len(diffs))])
					}
					resims++
				}
				if !work.Rollback() {
					t.Fatalf("%s: rollback refused", name)
				}
				requireRolledBack(t, name, work, untouched, pristine)
				c, r := requireGatedCandidates(t, name, base, ev, sample)
				compared += c
				routes += r
			}
		}
	}
	if resims == 0 || routes == 0 || routes == compared {
		t.Fatalf("%d flips held to a full resimulation; %d of %d candidates were routes", resims, routes, compared)
	}
}
