package asgraph_test

import (
	"slices"
	"testing"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/topogen"
)

// TestAppendNeighborsMatchesNeighbors: AppendNeighbors appends what
// Neighbors returns — every neighbor, ascending — behind whatever dst
// already holds, on every AS of a generated 600-AS graph, before and
// after edges are removed and added back; and it allocates nothing once
// dst has room. Neighbors is held to the sorted union of the four
// relationship lists, so the two are not only checked against each other.
func TestAppendNeighborsMatchesNeighbors(t *testing.T) {
	topo, err := topogen.Generate(topogen.DefaultConfig(600, 5))
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Graph
	buf := make([]bgp.ASN, 0, 1024)
	check := func(stage string) {
		t.Helper()
		for _, asn := range topo.Order {
			want := slices.Concat(g.Providers(asn), g.Customers(asn), g.Peers(asn), g.Siblings(asn))
			slices.Sort(want)
			if got := g.Neighbors(asn); !slices.Equal(got, want) || len(got) != g.Degree(asn) {
				t.Fatalf("%s: Neighbors(AS%d) = %v, want %v", stage, asn, got, want)
			}
			buf = append(buf[:0], 7, 3)
			buf = g.AppendNeighbors(buf, asn)
			if !slices.Equal(buf[:2], []bgp.ASN{7, 3}) || !slices.Equal(buf[2:], want) {
				t.Fatalf("%s: AppendNeighbors(AS%d) behind [7 3] = %v, want [7 3] + %v", stage, asn, buf, want)
			}
		}
	}
	check("generated")

	edges := g.Edges()
	removed := edges[:0:0]
	for i := 0; i < len(edges); i += 7 {
		e := edges[i]
		if rel, ok := g.RemoveEdge(e.A, e.B); !ok || rel != e.Rel {
			t.Fatalf("RemoveEdge(AS%d, AS%d) = %v %v, want %v", e.A, e.B, rel, ok, e.Rel)
		}
		removed = append(removed, e)
	}
	check("after RemoveEdge")
	for _, e := range removed {
		if err := g.AddEdge(e.A, e.B, e.Rel); err != nil {
			t.Fatal(err)
		}
	}
	check("after AddEdge")
	if !slices.Equal(g.Edges(), edges) {
		t.Fatal("removing and adding back edges changed the graph")
	}

	hub := slices.MaxFunc(topo.Order, func(a, b bgp.ASN) int { return g.Degree(a) - g.Degree(b) })
	if allocs := testing.AllocsPerRun(50, func() { buf = g.AppendNeighbors(buf[:0], hub) }); allocs != 0 {
		t.Errorf("AppendNeighbors into a buffer with room allocated %.1f objects, want 0", allocs)
	}
}
