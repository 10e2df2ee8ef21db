package infer

import (
	"context"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
)

// The rank algorithm infers relationships from transit-degree ranking
// in the spirit of Dimitropoulos et al., "AS Relationships: Inference
// and Validation" (CCR 2007): an AS's rank is how many distinct
// neighbors it is observed providing transit between; each path is
// oriented uphill to its highest-ranked AS and downhill after it, and
// the edges adjacent to the peak whose endpoints rank similarly are
// refined into peer-to-peer links.

// RankParams tunes the rank algorithm.
type RankParams struct {
	// PeerRatio bounds how dissimilar two ASes' transit degrees may be
	// for a peak-adjacent edge to be refined into peer-to-peer
	// (default 4).
	PeerRatio float64 `json:"peer_ratio"`
	// SiblingFactor classifies an edge with mutual transit evidence as
	// sibling when neither direction outvotes the other by more than
	// this factor (default 2).
	SiblingFactor float64 `json:"sibling_factor"`
}

func defaultRankParams() *RankParams {
	return &RankParams{PeerRatio: 4, SiblingFactor: 2}
}

func (p *RankParams) withDefaults() RankParams {
	q := *p
	if q.PeerRatio <= 0 {
		q.PeerRatio = 4
	}
	if q.SiblingFactor < 1 {
		q.SiblingFactor = 2
	}
	return q
}

func runRank(_ context.Context, in Input, params any) (*Output, error) {
	p := params.(*RankParams).withDefaults()
	paths := cleanPaths(in.Paths)
	degrees := observedDegrees(paths)
	tdeg := transitDegrees(paths)

	// rank orders two ASes by transit degree, breaking ties by observed
	// degree then ASN, so every comparison below is deterministic.
	outranks := func(x, y bgp.ASN) bool {
		if tdeg[x] != tdeg[y] {
			return tdeg[x] > tdeg[y]
		}
		if degrees[x] != degrees[y] {
			return degrees[x] > degrees[y]
		}
		return x < y
	}

	votes := make(map[edgeKey][2]int) // [0]: lower ASN provides; [1]: higher provides
	peak := make(map[edgeKey]bool)    // observed adjacent to a path's peak
	interior := make(map[edgeKey]bool)
	vote := func(provider, customer bgp.ASN) {
		k := ekey(provider, customer)
		c := votes[k]
		if provider == k.a {
			c[0]++
		} else {
			c[1]++
		}
		votes[k] = c
	}
	for _, path := range paths {
		// The peak is the highest-ranked AS on the path.
		j := 0
		for i := 1; i < len(path); i++ {
			if outranks(path[i], path[j]) {
				j = i
			}
		}
		for i := 0; i+1 < len(path); i++ {
			if i+1 <= j {
				vote(path[i+1], path[i]) // uphill: far AS provides
			} else {
				vote(path[i], path[i+1]) // downhill: near AS provides
			}
			k := ekey(path[i], path[i+1])
			if i+1 == j || i == j {
				peak[k] = true
			} else {
				interior[k] = true
			}
		}
	}

	g := asgraph.New()
	for _, k := range sortedEdgeKeys(votes) {
		c := votes[k]
		ca, cb := c[0], c[1]
		// Peering refinement: a peak-adjacent edge that never carries
		// interior transit, between ASes of comparable rank.
		if peak[k] && !interior[k] && ratioWithin(tdeg[k.a], tdeg[k.b], p.PeerRatio) {
			mustAdd(g.AddPeer(k.a, k.b))
			continue
		}
		switch {
		case ca > 0 && cb > 0 &&
			float64(maxInt(ca, cb)) <= p.SiblingFactor*float64(minInt(ca, cb)):
			mustAdd(g.AddSibling(k.a, k.b))
		case ca > cb:
			mustAdd(g.AddProviderCustomer(k.a, k.b))
		case cb > ca:
			mustAdd(g.AddProviderCustomer(k.b, k.a))
		default: // ca == cb (both zero is impossible: every edge got a vote)
			if outranks(k.a, k.b) {
				mustAdd(g.AddProviderCustomer(k.a, k.b))
			} else {
				mustAdd(g.AddProviderCustomer(k.b, k.a))
			}
		}
	}
	return &Output{Algorithm: "rank", Graph: g, Degrees: degrees}, nil
}

// ratioWithin reports whether the larger of (a+1, b+1) is within factor
// r of the smaller — +1 keeps stub ASes (transit degree 0) comparable.
func ratioWithin(a, b int, r float64) bool {
	hi, lo := float64(a+1), float64(b+1)
	if hi < lo {
		hi, lo = lo, hi
	}
	return hi <= r*lo
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func mustAdd(err error) {
	if err != nil {
		// Classification assigns each edge exactly once; a conflict is a
		// bug in this package, not bad input.
		panic(err)
	}
}

func init() {
	Default.MustRegister(Algorithm{
		Name:      "rank",
		Title:     "Transit-degree ranking with peering refinement (Dimitropoulos et al.)",
		NewParams: func() any { return defaultRankParams() },
		Run:       runRank,
	})
}
