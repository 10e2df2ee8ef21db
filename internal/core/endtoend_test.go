package core

import (
	"testing"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/routeviews"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/topogen"
)

// pipeline is the shared end-to-end fixture: generated topology,
// simulated tables at a RouteViews-like peer set, plus Looking-Glass
// grade full tables.
type pipeline struct {
	topo  *topogen.Topology
	peers []bgp.ASN
	res   *simulate.Result
	snap  *routeviews.Snapshot
}

func buildPipeline(t *testing.T, n int, seed int64) *pipeline {
	t.Helper()
	topo, err := topogen.Generate(topogen.DefaultConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	peers := routeviews.SelectPeers(topo, 24)
	res, err := simulate.Run(topo, simulate.Options{VantagePoints: peers})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unconverged) != 0 {
		t.Fatalf("unconverged: %v", res.Unconverged)
	}
	snap, err := routeviews.Collect(res, peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &pipeline{topo: topo, peers: peers, res: res, snap: snap}
}

// TestEndToEndImportTypicality reproduces the Table 2 shape: with the
// default ~1.5% atypical assignment, per-AS typicality lands in the
// 94–100% band the paper reports.
func TestEndToEndImportTypicality(t *testing.T) {
	p := buildPipeline(t, 400, 101)
	a := &ImportAnalyzer{Graph: p.topo.Graph}
	checked := 0
	for _, vantage := range p.peers {
		res := a.Typicality(p.res.Tables[vantage])
		if res.Comparable < 20 {
			continue // tiny tables say nothing
		}
		checked++
		if got := res.TypicalPct(); got < 90 {
			t.Errorf("%v: typicality %.2f%% below the paper's band (comparable %d)",
				vantage, got, res.Comparable)
		}
	}
	if checked == 0 {
		t.Fatal("no vantage had a comparable table")
	}
}

// TestEndToEndNextHopConsistency reproduces Figure 2a's shape: most
// preferences keyed on the next hop (≥90%, paper reports ~98%).
func TestEndToEndNextHopConsistency(t *testing.T) {
	p := buildPipeline(t, 400, 102)
	a := &ImportAnalyzer{Graph: p.topo.Graph}
	for _, vantage := range p.peers[:6] {
		res := a.NextHopConsistency(p.res.Tables[vantage])
		if res.Prefixes < 50 {
			continue
		}
		if got := res.Pct(); got < 90 {
			t.Errorf("%v: next-hop consistency %.2f%%", vantage, got)
		}
	}
}

// TestEndToEndSAPrefixes reproduces Table 5's shape: transit vantages
// observe a nonzero SA share, bounded well below half the cone.
func TestEndToEndSAPrefixes(t *testing.T) {
	p := buildPipeline(t, 400, 103)
	a := &ExportAnalyzer{Graph: p.topo.Graph}
	sawSA := false
	for _, vantage := range p.peers {
		view := ViewFromPeerTable(p.snap.Table, vantage)
		res := a.SAPrefixes(view)
		if res.ConePrefixes < 30 {
			continue
		}
		if got := res.SAPct(); got > 60 {
			t.Errorf("%v: SA share %.1f%% implausibly high", vantage, got)
		}
		if len(res.SA) > 0 {
			sawSA = true
			for _, sa := range res.SA {
				if sa.NextHopRel == asgraph.RelCustomer {
					t.Fatalf("SA via customer at %v: %+v", vantage, sa)
				}
			}
		}
	}
	if !sawSA {
		t.Fatal("no SA prefixes anywhere: selective announcement not exercised")
	}
}

// truthAdapter implements GroundTruth over the generator's policies.
type truthAdapter struct{ topo *topogen.Topology }

func (ta truthAdapter) IsSelectivelyAnnounced(prefix netx.Prefix) bool {
	origin, ok := ta.topo.PrefixOrigin[prefix]
	if !ok {
		return false
	}
	pol := ta.topo.Policies[origin]
	if _, sel := pol.Export.OriginProviders[prefix]; sel {
		return true
	}
	if _, tagged := pol.Export.NoUpstream[prefix]; tagged {
		return true
	}
	// Intermediate mechanisms: any AS aggregating the specific, or any
	// transit policy able to exclude it.
	for _, asn := range ta.topo.Order {
		p := ta.topo.Policies[asn]
		if p.Export.AggregateSpecifics[prefix] {
			return true
		}
		if p.Export.TransitSelective > 0 {
			for _, provider := range ta.topo.Graph.Providers(asn) {
				if p.Export.TransitExcluded(asn, prefix, provider) {
					return true
				}
			}
		}
	}
	return false
}

// TestEndToEndSAAgainstGroundTruth scores the Figure-4 detector against
// the generator's configuration — the validation the paper could not
// run. Every detection must trace back to a configured mechanism.
func TestEndToEndSAAgainstGroundTruth(t *testing.T) {
	p := buildPipeline(t, 400, 104)
	a := &ExportAnalyzer{Graph: p.topo.Graph}
	truth := truthAdapter{topo: p.topo}
	totalTP, totalFP := 0, 0
	for _, vantage := range p.peers {
		res := a.SAPrefixes(ViewFromPeerTable(p.snap.Table, vantage))
		tp, fp := ScoreSA(res, truth)
		totalTP += tp
		totalFP += fp
	}
	if totalTP == 0 {
		t.Fatal("no true positives")
	}
	if frac := float64(totalFP) / float64(totalTP+totalFP); frac > 0.02 {
		t.Fatalf("false positive share %.3f (tp=%d fp=%d)", frac, totalTP, totalFP)
	}
}

// TestEndToEndVerification reproduces Tables 4 and 7: community-based
// relationship verification and SA verification both above 90%.
func TestEndToEndVerification(t *testing.T) {
	p := buildPipeline(t, 400, 105)
	tiers := p.topo.Graph.Tiers()
	checkedRel, checkedSA := 0, 0
	pathIdx := PathsByPrefix(tablesOf(p))
	allPaths := AllPathsOf(pathIdx)
	for _, vantage := range p.peers {
		if p.topo.Policies[vantage].Tagging == nil {
			continue
		}
		rib := p.res.Tables[vantage]
		sem := InferCommunitySemantics(rib, tiers[vantage] > 1)
		if len(sem.ClassOf) == 0 {
			continue
		}
		rel := VerifyRelationships(rib, sem, p.topo.Graph)
		if rel.Neighbors < 5 {
			continue
		}
		checkedRel++
		if got := rel.VerifiedPct(); got < 90 {
			t.Errorf("%v: relationship verification %.1f%% (mismatched %v)",
				vantage, got, rel.Mismatched)
		}
		sa := (&ExportAnalyzer{Graph: p.topo.Graph}).SAPrefixes(ViewFromPeerTable(p.snap.Table, vantage))
		if len(sa.SA) < 20 {
			continue // percentages over tiny samples are noise
		}
		checkedSA++
		v := VerifySAPrefixes(sa, p.topo.Graph, allPaths, 0)
		// The paper verifies 95–97.6% with 68 vantage ASes over the real
		// Internet; at this fixture's scale (24 vantages, 400 ASes) the
		// structural limit is lower: a single-prefix origin that withholds
		// from a provider leaves that edge unexercised by any route, so no
		// path can corroborate it.
		if got := v.VerifiedPct(); got < 80 {
			t.Errorf("%v: SA verification %.1f%% of %d", vantage, got, v.SACount)
		}
	}
	if checkedRel == 0 {
		t.Fatal("no tagging vantage checked")
	}
	if checkedSA == 0 {
		t.Skip("no vantage with enough SA prefixes for verification")
	}
}

func tablesOf(p *pipeline) []*bgp.RIB {
	out := make([]*bgp.RIB, 0, len(p.peers))
	for _, asn := range p.peers {
		out = append(out, p.res.Tables[asn])
	}
	return out
}

// TestEndToEndCauses reproduces Tables 8 and 9: most SA origins are
// multihomed; splitting and aggregation are minority causes.
func TestEndToEndCauses(t *testing.T) {
	p := buildPipeline(t, 500, 106)
	a := &ExportAnalyzer{Graph: p.topo.Graph}
	mhTotal := MultihomingResult{}
	splitTotal := SplitAggregateResult{}
	for _, vantage := range p.peers {
		view := ViewFromPeerTable(p.snap.Table, vantage)
		sa := a.SAPrefixes(view)
		mh := ClassifyMultihoming(sa, p.topo.Graph)
		mhTotal.Multihomed += mh.Multihomed
		mhTotal.SingleHomed += mh.SingleHomed
		sp := AnalyzeSplitAggregate(sa, view, p.topo.Graph)
		splitTotal.SACount += sp.SACount
		splitTotal.Splitting += sp.Splitting
		splitTotal.Aggregating += sp.Aggregating
	}
	if mhTotal.Multihomed+mhTotal.SingleHomed == 0 {
		t.Fatal("no SA origins")
	}
	if got := mhTotal.MultihomedPct(); got < 50 {
		t.Errorf("multihomed share %.1f%%, paper reports ~75%%", got)
	}
	if splitTotal.SACount == 0 {
		t.Fatal("no SA prefixes for cause analysis")
	}
	if splitTotal.Splitting+splitTotal.Aggregating > splitTotal.SACount/2 {
		t.Errorf("splitting+aggregating = %d of %d SA: must be a minority cause",
			splitTotal.Splitting+splitTotal.Aggregating, splitTotal.SACount)
	}
}

// TestEndToEndSelectiveAnnouncing reproduces the Case-3 numbers: a large
// identified share, with withholding dominating export.
func TestEndToEndSelectiveAnnouncing(t *testing.T) {
	p := buildPipeline(t, 500, 107)
	a := &ExportAnalyzer{Graph: p.topo.Graph}
	pathIdx := PathsByPrefix(tablesOf(p))
	agg := SelectiveAnnouncingResult{}
	for _, vantage := range p.peers {
		sa := a.SAPrefixes(ViewFromPeerTable(p.snap.Table, vantage))
		res := AnalyzeSelectiveAnnouncing(sa, p.topo.Graph, pathIdx)
		agg.SACount += res.SACount
		agg.Identified += res.Identified
		agg.Exported += res.Exported
		agg.Withheld += res.Withheld
	}
	if agg.SACount == 0 {
		t.Fatal("no SA prefixes")
	}
	if got := agg.IdentifiedPct(); got < 60 {
		t.Errorf("identified %.1f%%, paper reaches ~90%%", got)
	}
	if agg.Withheld == 0 {
		t.Error("no withholding identified; paper reports ~79%")
	}
}

// TestEndToEndPeerExport reproduces Table 10: the overwhelming majority
// of peers export all their prefixes to other peers.
func TestEndToEndPeerExport(t *testing.T) {
	p := buildPipeline(t, 400, 108)
	var views []BestView
	for _, vantage := range p.peers {
		views = append(views, ViewFromPeerTable(p.snap.Table, vantage))
	}
	universe := OriginUniverse(views)
	checked := 0
	for _, view := range views {
		res := AnalyzePeerExport(view, p.topo.Graph, universe)
		if len(res.Rows) < 4 {
			continue
		}
		checked++
		if got := res.AnnouncingPct(); got < 70 {
			t.Errorf("%v: peers announcing %.1f%%, paper reports 86–100%%", view.AS, got)
		}
	}
	if checked == 0 {
		t.Fatal("no vantage with enough peers")
	}
}
