package policyscope

import (
	"context"
	"strings"
	"testing"

	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/core"
)

// requireRenders fails unless res renders text containing want.
func requireRenders(t *testing.T, res experiment.Result, want string) {
	t.Helper()
	if !strings.Contains(renderText(t, res), want) {
		t.Fatalf("render missing %q", want)
	}
}

func TestPolicyAtoms(t *testing.T) {
	out, err := NewSessionFromStudy(smallStudy(t)).Run(context.Background(), "atoms", nil)
	if err != nil {
		t.Fatal(err)
	}
	res := out.(PolicyAtomsResult)
	if res.Stats.Atoms == 0 || res.Stats.Prefixes == 0 {
		t.Fatalf("empty decomposition: %+v", res.Stats)
	}
	if res.Stats.Atoms > res.Stats.Prefixes {
		t.Fatalf("more atoms than prefixes: %+v", res.Stats)
	}
	if res.Attribution.MultiAtomOrigins == 0 {
		t.Fatal("no multi-atom origins at default policy mix")
	}
	// The paper's claim: selective export is the major cause.
	if got := res.Attribution.ExplainedPct(); got < 50 {
		t.Errorf("only %.1f%% of atom splits explained by selective announcement", got)
	}
	requireRenders(t, res, "atoms")
}

func TestDecisionCharacterization(t *testing.T) {
	out, err := NewSessionFromStudy(smallStudy(t)).Run(context.Background(), "decision", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.(RowsResult[core.DecisionStats]).Rows
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Section 4.1's claim is about cross-class choices: localpref must
	// decide a substantial share overall. Vantages whose candidates are
	// mostly same-class (two providers with identical jittered values)
	// legitimately fall through to path length, so the assertion is on
	// the aggregate.
	totalContested, totalLocalPref := 0, 0
	for _, r := range rows {
		totalContested += r.Contested
		totalLocalPref += r.ByStep[bgp.StepLocalPref]
	}
	if totalContested == 0 {
		t.Fatal("no contested prefixes anywhere")
	}
	if share := float64(totalLocalPref) / float64(totalContested); share < 0.25 {
		t.Errorf("localpref decided only %.2f of %d contested prefixes overall", share, totalContested)
	}
	requireRenders(t, out, "localpref")
}

func TestMultiSiteConfounder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumASes = 300
	cfg.Seed = 13
	cfg.CollectorPeers = 14
	out, err := NewSession(cfg).Run(context.Background(), "multisite", nil)
	if err != nil {
		t.Fatal(err)
	}
	impact := out.(MultiSiteImpact)
	if impact.MultiSiteOrigins == 0 {
		t.Skip("no multi-site origins drawn at this seed")
	}
	if impact.FromMultiSite > impact.SAPrefixes {
		t.Fatalf("inconsistent impact: %+v", impact)
	}
	// Multi-site artifacts must be a minority of SA detections at the
	// default 3% incidence.
	if impact.SAPrefixes > 0 && impact.Pct() > 50 {
		t.Errorf("multi-site artifacts dominate SA: %+v", impact)
	}
	requireRenders(t, impact, "multi-site")
}

// TestMultiSiteOriginsAreDetectedAsSA pins the confounder mechanism:
// a multi-site origin's prefixes are genuinely selectively announced
// from the provider's viewpoint, which is exactly why the paper flags
// the case.
func TestMultiSiteOriginsAreDetectedAsSA(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumASes = 400
	cfg.Seed = 17
	cfg.CollectorPeers = 20
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var multiSite []bgp.ASN
	for _, asn := range s.Topo.Order {
		if s.Topo.ASes[asn].MultiSite {
			multiSite = append(multiSite, asn)
		}
	}
	if len(multiSite) == 0 {
		t.Skip("no multi-site origins at this seed")
	}
	// Every multi-site origin has per-prefix single-provider policies.
	for _, asn := range multiSite {
		pol := s.Topo.Policies[asn]
		info := s.Topo.ASes[asn]
		if len(pol.Export.OriginProviders) != len(info.Prefixes) {
			t.Fatalf("%v: multi-site origin missing per-prefix homing", asn)
		}
		for _, set := range pol.Export.OriginProviders {
			if len(set) != 1 {
				t.Fatalf("%v: site homed on %d providers", asn, len(set))
			}
		}
	}
}
