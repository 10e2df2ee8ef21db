package infer

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
)

// The pari algorithm is probabilistic inference in the spirit of Feng
// et al., "PARI: A Probabilistic Approach to AS Relationships
// Inference": instead of committing to one annotation per edge, it
// accumulates directional-transit and peak-adjacency evidence and
// reports a per-edge posterior over the four relationship classes
// under a symmetric Dirichlet prior. The point estimate (Output.Graph)
// is the maximum a posteriori class per edge; SampleEnsemble draws
// concrete annotated graphs from the posterior for ensemble runs.

// Class indexes the four relationship classes of an edge posterior,
// always stated for the canonical orientation A < B.
type Class int

// Class values, in the fixed sampling/tie-break order.
const (
	// ClassP2C: A is B's provider.
	ClassP2C Class = iota
	// ClassC2P: B is A's provider.
	ClassC2P
	// ClassP2P: peer-to-peer.
	ClassP2P
	// ClassSibling: mutual transit, same organization.
	ClassSibling
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassP2C:
		return "p2c"
	case ClassC2P:
		return "c2p"
	case ClassP2P:
		return "p2p"
	case ClassSibling:
		return "sibling"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// EdgePosterior is one edge's class distribution (A < B; the four
// probabilities sum to 1).
type EdgePosterior struct {
	A       bgp.ASN `json:"a"`
	B       bgp.ASN `json:"b"`
	P2C     float64 `json:"p2c"`
	C2P     float64 `json:"c2p"`
	P2P     float64 `json:"p2p"`
	Sibling float64 `json:"sibling"`
}

// P returns the probability of class c.
func (ep EdgePosterior) P(c Class) float64 {
	switch c {
	case ClassP2C:
		return ep.P2C
	case ClassC2P:
		return ep.C2P
	case ClassP2P:
		return ep.P2P
	case ClassSibling:
		return ep.Sibling
	}
	return 0
}

// MAP returns the maximum-a-posteriori class, ties broken by the fixed
// class order (so the point estimate is deterministic).
func (ep EdgePosterior) MAP() Class {
	best, bestP := ClassP2C, ep.P2C
	for c := ClassC2P; c < numClasses; c++ {
		if p := ep.P(c); p > bestP {
			best, bestP = c, p
		}
	}
	return best
}

// addClassEdge installs class c for the canonical pair (a < b) into g.
func addClassEdge(g *asgraph.Graph, ep EdgePosterior, c Class) {
	a, b := ep.A, ep.B
	switch c {
	case ClassP2C:
		mustAdd(g.AddProviderCustomer(a, b))
	case ClassC2P:
		mustAdd(g.AddProviderCustomer(b, a))
	case ClassP2P:
		mustAdd(g.AddPeer(a, b))
	case ClassSibling:
		mustAdd(g.AddSibling(a, b))
	}
}

// PariParams tunes the probabilistic inference.
type PariParams struct {
	// Smoothing is the symmetric Dirichlet pseudo-count added to every
	// class before normalizing (default 0.5). Larger values flatten
	// the posterior; 0 keeps it but is clamped to a small epsilon so
	// every class stays sampleable.
	Smoothing float64 `json:"smoothing"`
	// PeerWeight scales peak-adjacency evidence against directional
	// transit evidence (default 2).
	PeerWeight float64 `json:"peer_weight"`
}

func defaultPariParams() *PariParams {
	return &PariParams{Smoothing: 0.5, PeerWeight: 2}
}

func (p *PariParams) withDefaults() PariParams {
	q := *p
	if q.Smoothing <= 0 {
		q.Smoothing = 1e-6
	}
	if q.PeerWeight <= 0 {
		q.PeerWeight = 2
	}
	return q
}

func runPari(_ context.Context, in Input, params any) (*Output, error) {
	p := params.(*PariParams).withDefaults()
	paths := cleanPaths(in.Paths)
	degrees := observedDegrees(paths)
	tdeg := transitDegrees(paths)

	// Evidence accumulation mirrors the rank orientation pass, but
	// instead of committing per edge it keeps all three signals:
	// directional transit counts in both directions and peak-adjacency
	// occurrences.
	type evidence struct {
		aProvides float64 // a observed providing for b
		bProvides float64
		peerish   float64 // observed adjacent to a path peak
	}
	ev := make(map[edgeKey]*evidence)
	at := func(k edgeKey) *evidence {
		e := ev[k]
		if e == nil {
			e = &evidence{}
			ev[k] = e
		}
		return e
	}
	for _, path := range paths {
		j := 0
		for i := 1; i < len(path); i++ {
			x, y := path[i], path[j]
			if tdeg[x] != tdeg[y] {
				if tdeg[x] > tdeg[y] {
					j = i
				}
			} else if degrees[x] > degrees[y] || (degrees[x] == degrees[y] && x < y) {
				j = i
			}
		}
		for i := 0; i+1 < len(path); i++ {
			k := ekey(path[i], path[i+1])
			e := at(k)
			var provider = path[i]
			if i+1 <= j {
				provider = path[i+1] // uphill
			}
			if provider == k.a {
				e.aProvides++
			} else {
				e.bProvides++
			}
			if i+1 == j || i == j {
				e.peerish++
			}
		}
	}

	posterior := make([]EdgePosterior, 0, len(ev))
	g := asgraph.New()
	for _, k := range sortedEdgeKeys(ev) {
		e := ev[k]
		// Class scores: directional evidence feeds p2c/c2p, mutual
		// evidence feeds sibling, peak adjacency feeds p2p.
		mutual := e.aProvides
		if e.bProvides < mutual {
			mutual = e.bProvides
		}
		scores := [numClasses]float64{
			ClassP2C:     e.aProvides,
			ClassC2P:     e.bProvides,
			ClassP2P:     p.PeerWeight * e.peerish,
			ClassSibling: 2 * mutual,
		}
		var total float64
		for c := range scores {
			scores[c] += p.Smoothing
			total += scores[c]
		}
		ep := EdgePosterior{
			A:       k.a,
			B:       k.b,
			P2C:     scores[ClassP2C] / total,
			C2P:     scores[ClassC2P] / total,
			P2P:     scores[ClassP2P] / total,
			Sibling: scores[ClassSibling] / total,
		}
		posterior = append(posterior, ep)
		addClassEdge(g, ep, ep.MAP())
	}
	return &Output{Algorithm: "pari", Graph: g, Degrees: degrees, Posterior: posterior}, nil
}

// SamplePosterior draws one concrete annotated graph from the
// posterior, deterministically in (posterior, seed): edges are visited
// in slice order and each class is drawn by inverse-CDF walk in the
// fixed class order.
func SamplePosterior(posterior []EdgePosterior, seed int64) *asgraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := asgraph.New()
	for _, ep := range posterior {
		u := rng.Float64()
		c := ClassSibling // fallback absorbs float residue
		for cand := ClassP2C; cand < numClasses; cand++ {
			if u < ep.P(cand) {
				c = cand
				break
			}
			u -= ep.P(cand)
		}
		addClassEdge(g, ep, c)
	}
	return g
}

// SampleEnsemble draws k graphs. Sample i uses seed+i, so sample
// identity is independent of k: growing the ensemble extends it
// without redrawing the prefix.
func SampleEnsemble(posterior []EdgePosterior, seed int64, k int) []*asgraph.Graph {
	out := make([]*asgraph.Graph, k)
	for i := range out {
		out[i] = SamplePosterior(posterior, seed+int64(i))
	}
	return out
}

func init() {
	Default.MustRegister(Algorithm{
		Name:          "pari",
		Title:         "Probabilistic per-edge posterior (PARI, Feng et al.)",
		Probabilistic: true,
		NewParams:     func() any { return defaultPariParams() },
		Run:           runPari,
	})
}
