package policyscope

import (
	"fmt"
	"io"
	"sort"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/reports"
	"github.com/policyscope/policyscope/internal/simulate"
)

// What-if experiments: the paper infers which routes ASes *do* use; the
// scenario engine asks which routes they *would* use after a change —
// the catchment and failover questions the related what-if literature
// (Sermpezis & Kotronis's catchment inference, Karlin et al.'s
// nation-state routing) studies. Session.WhatIf applies a scenario to
// the study's converged Internet and reports the catchment shift and
// reachability delta, re-converging incrementally.

// WhatIfReport is the outcome of one scenario application.
type WhatIfReport struct {
	Scenario simulate.Scenario
	// Delta is the raw routing change the engine observed.
	Delta *simulate.Delta
	// PeerBestChanged counts, per collector peer, prefixes whose best
	// route at that peer changed (the engine's Delta.PeerBestChanged;
	// every peer has a key).
	PeerBestChanged map[bgp.ASN]int
	// LostReach / GainedReach total the (prefix, AS) reachability pairs
	// removed and created by the scenario.
	LostReach, GainedReach int
}

// WhatIfEngine builds a scenario engine over the study's topology and
// simulation options. The engine owns an independent topology clone;
// successive Apply calls compound on it while the study itself stays on
// the base configuration.
func (s *Study) WhatIfEngine() (*simulate.Engine, error) {
	if s.Topo == nil {
		return nil, &NeedsGroundTruthError{Op: "what-if engine"}
	}
	return simulate.NewEngine(s.Topo, simulate.Options{
		VantagePoints: s.Peers,
		Parallelism:   s.Config.Parallelism,
		Intern:        s.Intern,
	})
}

// whatIfOn applies sc to eng — a clone of the session's base engine —
// and summarizes the shift.
func (s *Study) whatIfOn(eng *simulate.Engine, sc simulate.Scenario) (*WhatIfReport, error) {
	delta, err := eng.Apply(sc)
	if err != nil {
		return nil, err
	}
	rep := &WhatIfReport{
		Scenario:        sc,
		Delta:           delta,
		PeerBestChanged: make(map[bgp.ASN]int, len(s.Peers)),
	}
	// Keyed by the study's peers: one the engine holds no table for
	// still gets its zero.
	for _, peer := range s.Peers {
		rep.PeerBestChanged[peer] = delta.PeerBestChanged[peer]
	}
	for _, rd := range delta.ReachDeltas {
		if rd.After < rd.Before {
			rep.LostReach += rd.Before - rd.After
		} else {
			rep.GainedReach += rd.After - rd.Before
		}
	}
	return rep, nil
}

// FailoverScenario is the canonical what-if: fail the link between a
// multihomed stub and its first provider. It returns the scenario plus
// the event's endpoints, or ok=false when the study has no multihomed
// stub.
func (s *Study) FailoverScenario() (simulate.Scenario, bgp.ASN, bgp.ASN, bool) {
	for _, asn := range s.Topo.Order {
		providers := s.Topo.Graph.Providers(asn)
		if len(providers) >= 2 && len(s.Topo.ASes[asn].Prefixes) > 0 {
			sc := simulate.Scenario{
				Name:   fmt.Sprintf("failover-%d-%d", asn, providers[0]),
				Events: []simulate.Event{simulate.FailLink(asn, providers[0])},
			}
			return sc, asn, providers[0], true
		}
	}
	return simulate.Scenario{}, 0, 0, false
}

// RenderWhatIf renders the report in the repro harness's table style:
// a summary header, the most-shifted prefixes, and the peers that saw
// their view change.
func RenderWhatIf(rep *WhatIfReport, maxRows int) *reports.Table {
	if maxRows <= 0 {
		maxRows = 10
	}
	name := rep.Scenario.Name
	if name == "" {
		name = fmt.Sprintf("%d event(s)", len(rep.Scenario.Events))
	}
	t := &reports.Table{
		Title: fmt.Sprintf("What-if %s: %d/%d prefixes re-converged, %d AS-level best shifts, reach -%d/+%d",
			name, rep.Delta.Recomputed, rep.Delta.TotalPrefixes,
			rep.Delta.ShiftedASes(), rep.LostReach, rep.GainedReach),
		Columns: []string{"Prefix", "Origin", "Shifted ASes", "Lost", "Gained"},
	}
	for i, sh := range rep.Delta.Shifts {
		if i >= maxRows {
			t.AddRow("...", "", fmt.Sprintf("(%d more)", len(rep.Delta.Shifts)-maxRows), "", "")
			break
		}
		t.AddRow(sh.Prefix.String(), fmt.Sprintf("AS%d", sh.Origin),
			fmt.Sprintf("%d", sh.Shifted), fmt.Sprintf("%d", sh.Lost), fmt.Sprintf("%d", sh.Gained))
	}
	return t
}

// RenderWhatIfPeers renders the per-peer view-change counts, peers with
// the largest shift first.
func RenderWhatIfPeers(rep *WhatIfReport, maxRows int) *reports.Table {
	if maxRows <= 0 {
		maxRows = 10
	}
	type row struct {
		peer bgp.ASN
		n    int
	}
	rows := make([]row, 0, len(rep.PeerBestChanged))
	for peer, n := range rep.PeerBestChanged {
		if n > 0 {
			rows = append(rows, row{peer, n})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].peer < rows[j].peer
	})
	t := &reports.Table{
		Title:   fmt.Sprintf("Collector peers with changed best views: %d", len(rows)),
		Columns: []string{"Peer", "Changed best routes"},
	}
	for i, r := range rows {
		if i >= maxRows {
			t.AddRow("...", fmt.Sprintf("(%d more)", len(rows)-maxRows))
			break
		}
		t.AddRow(fmt.Sprintf("AS%d", r.peer), fmt.Sprintf("%d", r.n))
	}
	return t
}

// WriteWhatIf renders both what-if tables to w.
func WriteWhatIf(w io.Writer, rep *WhatIfReport, maxRows int) error {
	if _, err := RenderWhatIf(rep, maxRows).WriteTo(w); err != nil {
		return err
	}
	_, err := RenderWhatIfPeers(rep, maxRows).WriteTo(w)
	return err
}
