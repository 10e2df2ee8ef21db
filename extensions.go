package policyscope

// Extensions beyond the paper's tables: the policy-atoms connection its
// conclusion claims (Afek et al., IMW 2002), the decision-step
// characterization behind Section 4.1's opening claim, and the AOL-style
// multi-site confounder the paper defers to future work.

import (
	"context"
	"fmt"
	"io"

	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/internal/atoms"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/core"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/reports"
)

func init() {
	register(def[NoParams]{
		name: "atoms", title: "Policy atoms: decomposition and SA attribution (extension)", group: "extension", order: 140,
		run: func(_ context.Context, _ *Session, s *Study, _ NoParams) (experiment.Result, error) {
			return policyAtoms(s), nil
		},
	})
	register(def[NoParams]{
		name: "decision", title: "Deciding step for contested prefixes (extension)", group: "extension", order: 150,
		run: table(decisionCharacterization, renderDecisionCharacterization),
	})
	register(def[ProvidersParams]{
		name: "multisite", title: "Multi-site confounder (extension)", group: "extension", order: 160,
		defaults: &providersDefault, plan: planProviders,
		run: func(_ context.Context, _ *Session, s *Study, p ProvidersParams) (experiment.Result, error) {
			return multiSiteConfounder(s, p.Providers), nil
		},
	})
}

// PolicyAtomsResult bundles the atom decomposition with its attribution
// to selective announcement.
type PolicyAtomsResult struct {
	Stats atoms.Stats
	// Attribution links multi-atom origins to selective announcement
	// (detected SA prefixes plus ground-truth mechanisms).
	Attribution atoms.Attribution
}

// policyAtoms decomposes the collector view into policy atoms and tests
// the paper's closing claim: "Policies for exporting to providers are
// the major cause" of atom splitting.
func policyAtoms(s *Study) PolicyAtomsResult {
	decomp := atoms.Compute(s.Snapshot.Table, s.Peers)
	analyzer := &core.ExportAnalyzer{Graph: s.Graph}
	selective := make(map[netx.Prefix]bool)
	for _, peer := range s.Peers {
		for p := range analyzer.SAPrefixes(s.PeerView(peer)).SAPrefixSet() {
			selective[p] = true
		}
	}
	for _, asn := range s.Topo.Order {
		pol := s.Topo.Policies[asn]
		for p := range pol.Export.OriginProviders {
			selective[p] = true
		}
		for p := range pol.Export.NoUpstream {
			selective[p] = true
		}
	}
	return PolicyAtomsResult{
		Stats:       decomp.Stats(),
		Attribution: decomp.Attribute(selective),
	}
}

// Render implements experiment.Result.
func (r PolicyAtomsResult) Render(w io.Writer) error {
	t := &reports.Table{
		Title:   "Policy atoms (extension; Afek et al. IMW'02 connection from Section 5.1.5)",
		Columns: []string{"quantity", "value"},
		Note:    "the paper claims selective export to providers is the major cause of atom splitting",
	}
	t.AddRow("prefixes", fmt.Sprintf("%d", r.Stats.Prefixes))
	t.AddRow("atoms", fmt.Sprintf("%d", r.Stats.Atoms))
	t.AddRow("singleton atoms", fmt.Sprintf("%d", r.Stats.SingletonAtoms))
	t.AddRow("multi-prefix atoms", fmt.Sprintf("%d", r.Stats.MultiPrefixAtoms))
	t.AddRow("origins", fmt.Sprintf("%d", r.Stats.Origins))
	t.AddRow("origins split into >1 atom", fmt.Sprintf("%d", r.Attribution.MultiAtomOrigins))
	t.AddRow("splits explained by selective announcement",
		fmt.Sprintf("%d (%s%%)", r.Attribution.ExplainedBySelective, reports.Pct(r.Attribution.ExplainedPct())))
	return writeAll(w, t)
}

// decisionCharacterization computes, per Looking Glass vantage, which
// decision step actually picked the best route for contested prefixes.
func decisionCharacterization(s *Study, _ NoParams) []core.DecisionStats {
	out := make([]core.DecisionStats, 0, len(s.LookingGlass))
	for _, asn := range s.LookingGlass {
		out = append(out, core.AnalyzeDecisions(s.Result.Tables[asn]))
	}
	return out
}

func renderDecisionCharacterization(rows []core.DecisionStats) *reports.Table {
	t := &reports.Table{
		Title:   "Deciding step for contested prefixes (extension; Section 4.1's claim quantified)",
		Columns: []string{"AS", "contested", "% localpref", "% path length", "% later steps"},
		Note:    "localpref dominating confirms 'the shortest-path default is overridden'",
	}
	for _, r := range rows {
		if r.Contested == 0 {
			continue
		}
		later := 1 - r.Share(bgp.StepLocalPref) - r.Share(bgp.StepASPathLen)
		t.AddRow(r.AS.String(), fmt.Sprintf("%d", r.Contested),
			reports.Pct(100*r.Share(bgp.StepLocalPref)),
			reports.Pct(100*r.Share(bgp.StepASPathLen)),
			reports.Pct(100*later))
	}
	return t
}

// MultiSiteImpact measures the paper's AOL confounder: how many detected
// SA prefixes actually belong to backbone-less multi-site organizations
// rather than traffic engineers.
type MultiSiteImpact struct {
	// SAPrefixes is the detected SA population across Tier-1 vantages.
	SAPrefixes int
	// FromMultiSite counts detections whose origin is a multi-site AS.
	FromMultiSite int
	// MultiSiteOrigins is the number of such origins in the topology.
	MultiSiteOrigins int
}

// Pct returns the confounded share.
func (m MultiSiteImpact) Pct() float64 {
	if m.SAPrefixes == 0 {
		return 0
	}
	return 100 * float64(m.FromMultiSite) / float64(m.SAPrefixes)
}

// multiSiteConfounder quantifies the artifact at the top Tier-1s.
func multiSiteConfounder(s *Study, providers int) MultiSiteImpact {
	analyzer := &core.ExportAnalyzer{Graph: s.Graph}
	impact := MultiSiteImpact{}
	seen := make(map[netx.Prefix]bool)
	for _, asn := range s.TierOneVantages(providers) {
		for _, sa := range analyzer.SAPrefixes(s.PeerView(asn)).SA {
			if seen[sa.Prefix] {
				continue
			}
			seen[sa.Prefix] = true
			impact.SAPrefixes++
			if info := s.Topo.ASes[sa.Origin]; info != nil && info.MultiSite {
				impact.FromMultiSite++
			}
		}
	}
	for _, asn := range s.Topo.Order {
		if s.Topo.ASes[asn].MultiSite {
			impact.MultiSiteOrigins++
		}
	}
	return impact
}

// Render implements experiment.Result.
func (m MultiSiteImpact) Render(w io.Writer) error {
	t := &reports.Table{
		Title:   "Multi-site confounder (extension; the paper's AOL/AS1668 future-work case)",
		Columns: []string{"quantity", "value"},
		Note:    "these SA prefixes are structural artifacts, not traffic engineering",
	}
	t.AddRow("multi-site origins in topology", fmt.Sprintf("%d", m.MultiSiteOrigins))
	t.AddRow("distinct SA prefixes at Tier-1 vantages", fmt.Sprintf("%d", m.SAPrefixes))
	t.AddRow("of which from multi-site origins", fmt.Sprintf("%d (%s%%)", m.FromMultiSite, reports.Pct(m.Pct())))
	return writeAll(w, t)
}
