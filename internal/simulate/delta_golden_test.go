package simulate

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
)

var updateDeltaGolden = flag.Bool("update-delta-golden", false,
	"rewrite testdata/delta_identity.golden from this build's deltas (only when Delta is meant to change)")

// TestDeltaIdentityAcrossDeferral pins what Apply reports — Recomputed,
// the shift and reach-delta counts, the per-peer best changes — for 450
// random policy batches against values recorded before reconverge
// learned to leave an AS unmaterialized when a changed candidate cannot
// displace its best. Each batch re-prices one neighbor at a random AS
// (mostly non-vantage, where the deferral applies); every third also
// fails a random link, which routes the batch through every prefix. A
// deferral that dropped a "session changed" from Recomputed, or one
// that let a best route drift, shows here as a one-line diff.
func TestDeltaIdentityAcrossDeferral(t *testing.T) {
	var got strings.Builder
	for _, seed := range []int64{1, 2, 3} {
		topo, opts := buildTestTopo(t, 120, seed)
		base, err := NewEngine(topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		edges := topo.Graph.Edges()
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 150; trial++ {
			var as, nb bgp.ASN
			for {
				as = topo.Order[rng.Intn(len(topo.Order))]
				if nbs := topo.Graph.Neighbors(as); len(nbs) > 0 {
					nb = nbs[rng.Intn(len(nbs))]
					break
				}
			}
			// Inside the safe orderings, like randomBatch: a customer is
			// only promoted, a peer or provider only demoted.
			value := uint32(40 + 10*rng.Intn(4))
			if topo.Graph.Rel(as, nb) == asgraph.RelCustomer {
				value = uint32(200 + 10*rng.Intn(4))
			}
			sc := Scenario{Events: []Event{SetLocalPref(as, nb, value)}}
			if trial%3 == 2 {
				e := edges[rng.Intn(len(edges))]
				sc.Events = append(sc.Events, FailLink(e.A, e.B))
			}
			d, err := base.Clone().Apply(sc)
			if err != nil {
				t.Fatalf("seed %d trial %d %+v: %v", seed, trial, sc.Events, err)
			}
			// Every vantage AS has a key; only the moved ones are listed.
			var moved []string
			for asn, n := range d.PeerBestChanged {
				if n != 0 {
					moved = append(moved, fmt.Sprintf("%d:%d", asn, n))
				}
			}
			sort.Strings(moved)
			fmt.Fprintf(&got, "seed%d/%03d recomputed=%d shifts=%d shifted=%d reach=%d peers=%d moved=%s\n",
				seed, trial, d.Recomputed, len(d.Shifts), d.ShiftedASes(), len(d.ReachDeltas),
				len(d.PeerBestChanged), strings.Join(moved, ","))
		}
	}

	path := filepath.Join("testdata", "delta_identity.golden")
	if *updateDeltaGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d delta lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("delta differs from the recorded one:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
