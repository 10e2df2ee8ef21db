package sweep

import (
	"slices"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/simulate"
)

// Impact is one scenario's blast-radius record. Every field is a pure
// function of the base state and the scenario, so records are
// bit-identical across worker counts and across independent runs (no
// timings, no worker identities).
type Impact struct {
	// Index is the scenario's position in the expanded sweep.
	Index int `json:"index"`
	// Name is the scenario's (generated) name.
	Name string `json:"name"`
	// Events is the scenario's event count.
	Events int `json:"events"`
	// Error is the validation error of a rejected scenario; all impact
	// fields are zero when set.
	Error string `json:"error,omitempty"`
	// RecomputedPrefixes counts prefixes whose routing was re-converged.
	RecomputedPrefixes int `json:"recomputed_prefixes"`
	// AffectedPrefixes counts prefixes with at least one changed best
	// next hop (the catchment-delta width).
	AffectedPrefixes int `json:"affected_prefixes"`
	// ShiftedASes totals (prefix, AS) best-next-hop changes — the
	// path-change count.
	ShiftedASes int `json:"shifted_ases"`
	// LostReachPairs / GainedReachPairs total the (prefix, AS)
	// reachability pairs the scenario destroyed and created.
	LostReachPairs   int `json:"lost_reach_pairs"`
	GainedReachPairs int `json:"gained_reach_pairs"`
	// UnreachablePrefixes counts prefixes left with no route anywhere —
	// full disconnections of an origin.
	UnreachablePrefixes int `json:"unreachable_prefixes"`
	// PeerChanges summarizes, per vantage point, how many prefixes
	// changed their best route there (ascending peer order).
	PeerChanges []PeerChange `json:"peer_changes,omitempty"`
	// TopShifts details the most-shifted prefixes (bounded by the
	// executor's TopShifts option).
	TopShifts []ShiftRecord `json:"top_shifts,omitempty"`
}

// PeerChange is one vantage point's per-scenario summary.
type PeerChange struct {
	Peer     bgp.ASN `json:"peer"`
	Prefixes int     `json:"prefixes"`
}

// ShiftRecord is one prefix's catchment delta inside an Impact.
type ShiftRecord struct {
	Prefix  string  `json:"prefix"`
	Origin  bgp.ASN `json:"origin"`
	Shifted int     `json:"shifted"`
	Lost    int     `json:"lost"`
	Gained  int     `json:"gained"`
}

// Apply runs one scenario on eng and summarizes the delta as an Impact
// record through BuildImpact, which is what the executor's workers call
// on their scratch engines, so a single what-if and a sweep member
// produce identical records. topShifts
// bounds the per-prefix detail (<= 0 keeps none). The engine retains
// the post-scenario state; rollback is the caller's concern.
func Apply(eng *simulate.Engine, sc simulate.Scenario, topShifts int) (*Impact, *simulate.Delta, error) {
	delta, err := eng.Apply(sc)
	if err != nil {
		return nil, nil, err
	}
	return BuildImpact(sc, delta, topShifts), delta, nil
}

// BuildImpact folds one scenario's Delta into its Impact record.
func BuildImpact(sc simulate.Scenario, delta *simulate.Delta, topShifts int) *Impact {
	imp, _ := buildImpact(sc, delta, topShifts, nil)
	return imp
}

// buildImpact is BuildImpact gathering the shifts' vantage points in
// peers, a buffer the caller keeps across records, and returning it as it
// grew: a warm buffer leaves the record the only allocation besides its
// own lists and the top shifts' prefix strings.
func buildImpact(sc simulate.Scenario, delta *simulate.Delta, topShifts int, peers []bgp.ASN) (*Impact, []bgp.ASN) {
	imp := &Impact{
		Name:               sc.Name,
		Events:             len(sc.Events),
		RecomputedPrefixes: delta.Recomputed,
		AffectedPrefixes:   len(delta.Shifts),
	}
	peers = peers[:0]
	for _, sh := range delta.Shifts {
		imp.ShiftedASes += sh.Shifted
		peers = append(peers, sh.Vantage...)
	}
	if n := min(topShifts, len(delta.Shifts)); n > 0 {
		imp.TopShifts = make([]ShiftRecord, n)
		for i, sh := range delta.Shifts[:n] {
			imp.TopShifts[i] = ShiftRecord{
				Prefix: sh.Prefix.String(), Origin: sh.Origin,
				Shifted: sh.Shifted, Lost: sh.Lost, Gained: sh.Gained,
			}
		}
	}
	for _, rd := range delta.ReachDeltas {
		if rd.After < rd.Before {
			imp.LostReachPairs += rd.Before - rd.After
		} else {
			imp.GainedReachPairs += rd.After - rd.Before
		}
		if rd.Before > 0 && rd.After == 0 {
			imp.UnreachablePrefixes++
		}
	}
	if len(peers) > 0 {
		// Sorted, each peer's run is its count: the shifts that list it.
		slices.Sort(peers)
		runs := 1
		for i := 1; i < len(peers); i++ {
			if peers[i] != peers[i-1] {
				runs++
			}
		}
		imp.PeerChanges = make([]PeerChange, 0, runs)
		for i, p := range peers {
			if i > 0 && p == peers[i-1] {
				imp.PeerChanges[len(imp.PeerChanges)-1].Prefixes++
			} else {
				imp.PeerChanges = append(imp.PeerChanges, PeerChange{Peer: p, Prefixes: 1})
			}
		}
	}
	return imp, peers
}
