package sweep

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/simulate"
)

// randomDelta draws a Delta the way Apply shapes one: shifts whose
// Vantage lists are ascending and duplicate-free, here often empty and
// often the same list as the shift before, and reach deltas both ways.
func randomDelta(rng *rand.Rand) *simulate.Delta {
	d := &simulate.Delta{Recomputed: rng.Intn(50)}
	var last []bgp.ASN
	for range rng.Intn(12) {
		var vantage []bgp.ASN
		switch rng.Intn(3) {
		case 0: // none
		case 1:
			vantage = last
		default:
			for asn := bgp.ASN(1); asn <= 12; asn++ {
				if rng.Intn(3) == 0 {
					vantage = append(vantage, asn)
				}
			}
		}
		last = vantage
		d.Shifts = append(d.Shifts, simulate.PrefixShift{
			Prefix: netx.Prefix{Addr: uint32(rng.Intn(1<<16)) << 16, Len: 16}, Origin: bgp.ASN(rng.Intn(100)),
			Shifted: rng.Intn(20), Lost: rng.Intn(5), Gained: rng.Intn(5), Vantage: vantage,
		})
	}
	for range rng.Intn(6) {
		d.ReachDeltas = append(d.ReachDeltas, simulate.ReachDelta{Before: rng.Intn(30), After: rng.Intn(30)})
	}
	return d
}

// TestBuildImpactByDefinition holds BuildImpact to what its fields mean,
// on random Deltas and every kind of topShifts bound: PeerChanges is
// strictly ascending, each count is the number of shifts that list that
// peer (counted peer by peer), the counts add up to the vantage points
// listed, and TopShifts keeps exactly min(topShifts, shifts) records, the
// first shifts in order. A worker's reused buffer builds the same record.
func TestBuildImpactByDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var peers []bgp.ASN
	for trial := 0; trial < 2000; trial++ {
		d := randomDelta(rng)
		sc := simulate.Scenario{Name: "random", Events: make([]simulate.Event, rng.Intn(3))}
		for _, top := range []int{-1, 0, len(d.Shifts) / 2, len(d.Shifts), len(d.Shifts) + 3} {
			imp := BuildImpact(sc, d, top)
			var reused *Impact
			reused, peers = buildImpact(sc, d, top, peers)
			if got, want := mustJSON(t, reused), mustJSON(t, imp); got != want {
				t.Fatalf("trial %d, top %d: a reused buffer built %s, a fresh one %s", trial, top, got, want)
			}

			listed, total := map[bgp.ASN]bool{}, 0
			for _, sh := range d.Shifts {
				for _, p := range sh.Vantage {
					listed[p] = true
				}
				total += len(sh.Vantage)
			}
			if len(imp.PeerChanges) != len(listed) {
				t.Fatalf("trial %d: %d peer changes for %d peers listed", trial, len(imp.PeerChanges), len(listed))
			}
			sum := 0
			for i, pc := range imp.PeerChanges {
				if i > 0 && pc.Peer <= imp.PeerChanges[i-1].Peer {
					t.Fatalf("trial %d: peer changes not strictly ascending: %v", trial, imp.PeerChanges)
				}
				want := 0
				for _, sh := range d.Shifts {
					if slices.Contains(sh.Vantage, pc.Peer) {
						want++
					}
				}
				if pc.Prefixes != want {
					t.Fatalf("trial %d: peer %d counts %d prefixes, %d shifts list it", trial, pc.Peer, pc.Prefixes, want)
				}
				sum += pc.Prefixes
			}
			if sum != total {
				t.Fatalf("trial %d: peer counts sum to %d, the shifts list %d vantage points", trial, sum, total)
			}

			if want := max(0, min(top, len(d.Shifts))); len(imp.TopShifts) != want {
				t.Fatalf("trial %d: top %d of %d shifts kept %d records", trial, top, len(d.Shifts), len(imp.TopShifts))
			}
			for i, rec := range imp.TopShifts {
				if sh := d.Shifts[i]; rec.Prefix != sh.Prefix.String() || rec.Origin != sh.Origin || rec.Shifted != sh.Shifted {
					t.Fatalf("trial %d: top shift %d is %+v, the Delta's is %+v", trial, i, rec, sh)
				}
			}
		}
	}
}

// TestBuildImpactAllocatesTheRecord: with a warm buffer, a record costs
// the Impact, its TopShifts and PeerChanges arrays, and one string per
// top shift's prefix — nothing else.
func TestBuildImpactAllocatesTheRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	topo, opts := buildTestTopo(t, 150, 7)
	base := newBase(t, topo, opts)
	var (
		sc    simulate.Scenario
		delta *simulate.Delta
	)
	for _, e := range topo.Graph.Edges() {
		sc = simulate.Scenario{Name: "fail", Events: []simulate.Event{simulate.FailLink(e.A, e.B)}}
		d, err := base.Clone().Apply(sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Shifts) > 3 && d.Shifts[0].Vantage != nil {
			delta = d
			break
		}
	}
	if delta == nil {
		t.Fatal("no link failure shifts a vantage point's route for four prefixes")
	}
	const top = 3
	imp, peers := buildImpact(sc, delta, top, nil)
	if len(imp.TopShifts) != top || len(imp.PeerChanges) == 0 {
		t.Fatalf("record keeps %d top shifts and %d peer changes", len(imp.TopShifts), len(imp.PeerChanges))
	}
	allocs := testing.AllocsPerRun(100, func() {
		imp, peers = buildImpact(sc, delta, top, peers)
	})
	if want := float64(1 + 1 + 1 + top); allocs != want {
		t.Errorf("a record with %d top shifts allocates %.1f objects, want %.0f", top, allocs, want)
	}
}
