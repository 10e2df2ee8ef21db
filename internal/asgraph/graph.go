// Package asgraph implements the annotated AS graph of Section 2.1 of the
// paper: ASes as nodes, edges classified as provider-to-customer or
// peer-to-peer (plus the sibling class Gao's inference can emit). It
// provides the relationship-constrained reachability primitives the
// paper's export-policy algorithm (Figure 4) is built on: customer cones,
// customer paths, and valley-free path validation.
package asgraph

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/policyscope/policyscope/internal/bgp"
)

// Relationship describes what a neighbor is *to* a given AS.
type Relationship int8

// Relationship values. RelProvider means "the neighbor is my provider".
const (
	RelNone Relationship = iota
	RelProvider
	RelCustomer
	RelPeer
	RelSibling
)

// ParseRelationship inverts String. It accepts the canonical names plus
// the common "p2c"/"c2p"/"p2p" abbreviations used in relationship files.
func ParseRelationship(s string) (Relationship, error) {
	switch s {
	case "provider", "c2p":
		return RelProvider, nil
	case "customer", "p2c":
		return RelCustomer, nil
	case "peer", "p2p":
		return RelPeer, nil
	case "sibling", "s2s":
		return RelSibling, nil
	case "none", "":
		return RelNone, nil
	}
	return RelNone, fmt.Errorf("asgraph: unknown relationship %q", s)
}

func (r Relationship) String() string {
	switch r {
	case RelProvider:
		return "provider"
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelSibling:
		return "sibling"
	case RelNone:
		return "none"
	}
	return fmt.Sprintf("Relationship(%d)", int8(r))
}

// Invert returns the relationship seen from the other end of the edge.
func (r Relationship) Invert() Relationship {
	switch r {
	case RelProvider:
		return RelCustomer
	case RelCustomer:
		return RelProvider
	}
	return r
}

// ErrEdgeConflict is returned when an edge is re-added with a different
// relationship type.
var ErrEdgeConflict = errors.New("asgraph: conflicting edge relationship")

// Graph is an annotated AS graph. The zero value is unusable; use New.
type Graph struct {
	providers map[bgp.ASN][]bgp.ASN // neighbors that are providers of the key
	customers map[bgp.ASN][]bgp.ASN // neighbors that are customers of the key
	peers     map[bgp.ASN][]bgp.ASN
	siblings  map[bgp.ASN][]bgp.ASN
	edges     map[[2]bgp.ASN]Relationship // canonical a<b; value = what b is to a
	nodes     map[bgp.ASN]bool
}

// New returns an empty annotated graph.
func New() *Graph {
	return &Graph{
		providers: make(map[bgp.ASN][]bgp.ASN),
		customers: make(map[bgp.ASN][]bgp.ASN),
		peers:     make(map[bgp.ASN][]bgp.ASN),
		siblings:  make(map[bgp.ASN][]bgp.ASN),
		edges:     make(map[[2]bgp.ASN]Relationship),
		nodes:     make(map[bgp.ASN]bool),
	}
}

// AddNode ensures asn exists in the graph even with no edges.
func (g *Graph) AddNode(asn bgp.ASN) { g.nodes[asn] = true }

func edgeKey(a, b bgp.ASN) ([2]bgp.ASN, bool) {
	if a < b {
		return [2]bgp.ASN{a, b}, false
	}
	return [2]bgp.ASN{b, a}, true
}

// AddProviderCustomer records that provider sells transit to customer.
// Re-adding an identical edge is a no-op; a conflicting type returns
// ErrEdgeConflict.
func (g *Graph) AddProviderCustomer(provider, customer bgp.ASN) error {
	return g.addEdge(customer, provider, RelProvider)
}

// AddPeer records a peer-to-peer edge.
func (g *Graph) AddPeer(a, b bgp.ASN) error { return g.addEdge(a, b, RelPeer) }

// AddSibling records a sibling edge (mutual transit, same organization).
func (g *Graph) AddSibling(a, b bgp.ASN) error { return g.addEdge(a, b, RelSibling) }

// addEdge records that "other" is rel to "self".
func (g *Graph) addEdge(self, other bgp.ASN, rel Relationship) error {
	if self == other {
		return fmt.Errorf("asgraph: self edge on %v", self)
	}
	key, swapped := edgeKey(self, other)
	stored := rel // what key[1] is to key[0]
	if swapped {
		stored = rel.Invert()
	}
	if prev, ok := g.edges[key]; ok {
		if prev == stored {
			return nil
		}
		return fmt.Errorf("%w: %v-%v is %v, re-added as %v", ErrEdgeConflict, key[0], key[1], prev, stored)
	}
	g.edges[key] = stored
	g.nodes[self] = true
	g.nodes[other] = true
	switch rel {
	case RelProvider:
		g.providers[self] = append(g.providers[self], other)
		g.customers[other] = append(g.customers[other], self)
	case RelCustomer:
		g.customers[self] = append(g.customers[self], other)
		g.providers[other] = append(g.providers[other], self)
	case RelPeer:
		g.peers[self] = append(g.peers[self], other)
		g.peers[other] = append(g.peers[other], self)
	case RelSibling:
		g.siblings[self] = append(g.siblings[self], other)
		g.siblings[other] = append(g.siblings[other], self)
	default:
		return fmt.Errorf("asgraph: cannot add edge with relationship %v", rel)
	}
	return nil
}

// RemoveEdge deletes the edge between a and b, whatever its type,
// returning the relationship the removed edge had (what b was to a).
// It returns RelNone and false when no edge existed. Used by the
// scenario engine's link-failure events.
func (g *Graph) RemoveEdge(a, b bgp.ASN) (Relationship, bool) {
	key, swapped := edgeKey(a, b)
	stored, ok := g.edges[key]
	if !ok {
		return RelNone, false
	}
	delete(g.edges, key)
	rel := stored
	if swapped {
		rel = rel.Invert()
	}
	switch rel {
	case RelProvider: // b is a's provider
		g.providers[a] = removeASN(g.providers[a], b)
		g.customers[b] = removeASN(g.customers[b], a)
	case RelCustomer:
		g.customers[a] = removeASN(g.customers[a], b)
		g.providers[b] = removeASN(g.providers[b], a)
	case RelPeer:
		g.peers[a] = removeASN(g.peers[a], b)
		g.peers[b] = removeASN(g.peers[b], a)
	case RelSibling:
		g.siblings[a] = removeASN(g.siblings[a], b)
		g.siblings[b] = removeASN(g.siblings[b], a)
	}
	return rel, true
}

func removeASN(s []bgp.ASN, x bgp.ASN) []bgp.ASN {
	for i, v := range s {
		if v == x {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// AddEdge adds an edge where rel states what b is to a — the same
// orientation RemoveEdge returns, so a fail/restore round-trip passes
// the removed relationship straight through.
func (g *Graph) AddEdge(a, b bgp.ASN, rel Relationship) error {
	return g.addEdge(a, b, rel)
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	for asn := range g.nodes {
		c.nodes[asn] = true
	}
	for key, rel := range g.edges {
		c.edges[key] = rel
	}
	copyAdj := func(dst, src map[bgp.ASN][]bgp.ASN) {
		for asn, nbrs := range src {
			if len(nbrs) > 0 {
				dst[asn] = append([]bgp.ASN(nil), nbrs...)
			}
		}
	}
	copyAdj(c.providers, g.providers)
	copyAdj(c.customers, g.customers)
	copyAdj(c.peers, g.peers)
	copyAdj(c.siblings, g.siblings)
	return c
}

// Rel returns what neighbor is to asn: RelProvider if neighbor is asn's
// provider, and so on. RelNone when no edge exists.
func (g *Graph) Rel(asn, neighbor bgp.ASN) Relationship {
	key, swapped := edgeKey(asn, neighbor)
	rel, ok := g.edges[key]
	if !ok {
		return RelNone
	}
	if swapped {
		return rel.Invert()
	}
	return rel
}

// Providers returns the providers of asn in ascending order.
func (g *Graph) Providers(asn bgp.ASN) []bgp.ASN { return sortedCopy(g.providers[asn]) }

// Customers returns the customers of asn in ascending order.
func (g *Graph) Customers(asn bgp.ASN) []bgp.ASN { return sortedCopy(g.customers[asn]) }

// Peers returns the peers of asn in ascending order.
func (g *Graph) Peers(asn bgp.ASN) []bgp.ASN { return sortedCopy(g.peers[asn]) }

// Siblings returns the siblings of asn in ascending order.
func (g *Graph) Siblings(asn bgp.ASN) []bgp.ASN { return sortedCopy(g.siblings[asn]) }

// Neighbors returns every neighbor of asn in ascending order.
func (g *Graph) Neighbors(asn bgp.ASN) []bgp.ASN {
	return g.AppendNeighbors(make([]bgp.ASN, 0, g.Degree(asn)), asn)
}

// AppendNeighbors appends every neighbor of asn to dst in ascending order
// and returns the extended slice: Neighbors into a buffer the caller
// keeps, allocation-free when dst has room.
func (g *Graph) AppendNeighbors(dst []bgp.ASN, asn bgp.ASN) []bgp.ASN {
	n := len(dst)
	dst = append(dst, g.providers[asn]...)
	dst = append(dst, g.customers[asn]...)
	dst = append(dst, g.peers[asn]...)
	dst = append(dst, g.siblings[asn]...)
	slices.Sort(dst[n:])
	return dst
}

// Degree returns the number of neighbors of asn (Table 1's "degree").
func (g *Graph) Degree(asn bgp.ASN) int {
	return len(g.providers[asn]) + len(g.customers[asn]) + len(g.peers[asn]) + len(g.siblings[asn])
}

// HasNode reports whether asn is known to the graph.
func (g *Graph) HasNode(asn bgp.ASN) bool { return g.nodes[asn] }

// Nodes returns every AS in ascending order.
func (g *Graph) Nodes() []bgp.ASN {
	out := make([]bgp.ASN, 0, len(g.nodes))
	for a := range g.nodes {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumNodes returns the AS count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge is one undirected session of the graph with A < B; Rel states
// what B is to A (the AddEdge/RemoveEdge orientation).
type Edge struct {
	A, B bgp.ASN
	Rel  Relationship
}

// Edges returns every edge in deterministic (A, B) ascending order —
// the canonical enumeration sweep generators and serializers iterate.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for k, rel := range g.edges {
		out = append(out, Edge{A: k[0], B: k[1], Rel: rel})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

func sortedCopy(in []bgp.ASN) []bgp.ASN {
	if len(in) == 0 {
		return nil
	}
	out := append([]bgp.ASN(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rawCustomers exposes the unsorted adjacency for hot loops.
func (g *Graph) rawCustomers(asn bgp.ASN) []bgp.ASN { return g.customers[asn] }
