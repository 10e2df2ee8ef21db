package sweep

import (
	"slices"

	"github.com/policyscope/policyscope/internal/bgp"
)

// Aggregate is the streaming summary of one sweep: totals, the
// blast-radius histogram, the top-k most-critical scenarios, and the
// per-vantage-point summaries. It is deterministic for a given base
// state and scenario list regardless of worker count (records are
// folded in scenario index order; ties in the top-k lists keep the
// earlier scenario).
type Aggregate struct {
	// Scenarios counts every record, Errors the rejected ones.
	Scenarios int `json:"scenarios"`
	Errors    int `json:"errors"`
	// ScenariosWithImpact counts scenarios that shifted at least one
	// (prefix, AS) best next hop.
	ScenariosWithImpact int `json:"scenarios_with_impact"`
	// ScenariosPartitioning counts scenarios that left at least one
	// prefix fully unreachable.
	ScenariosPartitioning int `json:"scenarios_partitioning"`
	// Totals over all scenarios.
	RecomputedPrefixes int `json:"recomputed_prefixes"`
	ShiftedASes        int `json:"shifted_ases"`
	LostReachPairs     int `json:"lost_reach_pairs"`
	GainedReachPairs   int `json:"gained_reach_pairs"`
	// Histogram buckets scenarios by shifted (prefix, AS) pairs.
	Histogram []HistogramBucket `json:"impact_histogram"`
	// TopByShift / TopByLost are the most-critical scenarios — the
	// links and policy flips with the widest blast radius.
	TopByShift []CriticalScenario `json:"top_by_shifted_ases"`
	TopByLost  []CriticalScenario `json:"top_by_lost_reach"`
	// Peers summarizes each vantage point across the whole sweep,
	// ascending peer order.
	Peers []PeerSummary `json:"peer_summaries,omitempty"`
}

// HistogramBucket is one blast-radius band.
type HistogramBucket struct {
	// Label names the band ("0", "1-9", ...).
	Label string `json:"label"`
	// Scenarios counts scenarios whose ShiftedASes falls in the band.
	Scenarios int `json:"scenarios"`
}

// CriticalScenario is one top-k entry.
type CriticalScenario struct {
	Index          int    `json:"index"`
	Name           string `json:"name"`
	ShiftedASes    int    `json:"shifted_ases"`
	LostReachPairs int    `json:"lost_reach_pairs"`
}

// PeerSummary is one vantage point's sweep-wide view.
type PeerSummary struct {
	Peer bgp.ASN `json:"peer"`
	// Scenarios counts scenarios that changed at least one best route
	// at this peer; PrefixChanges totals the changed (scenario, prefix)
	// pairs.
	Scenarios     int `json:"scenarios"`
	PrefixChanges int `json:"prefix_changes"`
}

// histBounds are the inclusive lower bounds of the histogram bands.
var histBounds = []struct {
	label string
	lo    int
}{
	{"0", 0},
	{"1-9", 1},
	{"10-99", 10},
	{"100-999", 100},
	{"1000+", 1000},
}

// Aggregator folds Impact records into an Aggregate, online. Records
// must be Added in scenario index order — the top-k tie-break relies on
// it. The executor feeds one through its emitter; the distributed
// coordinator reuses the same type so a merged fleet run aggregates
// exactly like a single process. Not safe for concurrent use.
type Aggregator struct {
	agg   Aggregate
	hist  []int
	peers map[bgp.ASN]*PeerSummary
	topK  int
}

// NewAggregator returns an empty Aggregator keeping top-k lists of k
// entries (k <= 0 selects the default of 10).
func NewAggregator(topK int) *Aggregator {
	if topK <= 0 {
		topK = 10
	}
	return &Aggregator{
		hist:  make([]int, len(histBounds)),
		peers: make(map[bgp.ASN]*PeerSummary),
		topK:  topK,
	}
}

// Add folds one record. Callers must add records in ascending scenario
// index order.
func (a *Aggregator) Add(imp *Impact) {
	a.agg.Scenarios++
	if imp.Error != "" {
		a.agg.Errors++
		return
	}
	a.agg.RecomputedPrefixes += imp.RecomputedPrefixes
	a.agg.ShiftedASes += imp.ShiftedASes
	a.agg.LostReachPairs += imp.LostReachPairs
	a.agg.GainedReachPairs += imp.GainedReachPairs
	if imp.ShiftedASes > 0 {
		a.agg.ScenariosWithImpact++
	}
	if imp.UnreachablePrefixes > 0 {
		a.agg.ScenariosPartitioning++
	}
	bucket := 0
	for bi, b := range histBounds {
		if imp.ShiftedASes >= b.lo {
			bucket = bi
		}
	}
	a.hist[bucket]++
	for _, pc := range imp.PeerChanges {
		ps := a.peers[pc.Peer]
		if ps == nil {
			ps = &PeerSummary{Peer: pc.Peer}
			a.peers[pc.Peer] = ps
		}
		ps.Scenarios++
		ps.PrefixChanges += pc.Prefixes
	}
	entry := CriticalScenario{
		Index: imp.Index, Name: imp.Name,
		ShiftedASes: imp.ShiftedASes, LostReachPairs: imp.LostReachPairs,
	}
	a.agg.TopByShift = topInsert(a.agg.TopByShift, entry, a.topK,
		func(e CriticalScenario) int { return e.ShiftedASes })
	a.agg.TopByLost = topInsert(a.agg.TopByLost, entry, a.topK,
		func(e CriticalScenario) int { return e.LostReachPairs })
}

// topInsert keeps list as the top-k by metric (descending), ties broken
// by earlier scenario index. Records arrive in index order, so a new
// entry only displaces a strictly smaller metric.
func topInsert(list []CriticalScenario, e CriticalScenario, k int, metric func(CriticalScenario) int) []CriticalScenario {
	if len(list) >= k && metric(e) <= metric(list[len(list)-1]) {
		return list
	}
	pos := len(list)
	for pos > 0 && metric(e) > metric(list[pos-1]) {
		pos--
	}
	list = append(list, CriticalScenario{})
	copy(list[pos+1:], list[pos:])
	list[pos] = e
	if len(list) > k {
		list = list[:k]
	}
	return list
}

// Aggregate finalizes the summary. The Aggregator remains usable; a
// later Add is reflected in the next call.
func (a *Aggregator) Aggregate() *Aggregate {
	out := a.agg
	out.Histogram = make([]HistogramBucket, len(histBounds))
	for i, b := range histBounds {
		out.Histogram[i] = HistogramBucket{Label: b.label, Scenarios: a.hist[i]}
	}
	peers := make([]bgp.ASN, 0, len(a.peers))
	for p := range a.peers {
		peers = append(peers, p)
	}
	slices.Sort(peers)
	out.Peers = make([]PeerSummary, 0, len(peers))
	for _, p := range peers {
		out.Peers = append(out.Peers, *a.peers[p])
	}
	return &out
}
