package policyscope

import (
	"fmt"

	"github.com/policyscope/policyscope/internal/reports"
)

// RunAllOptions sizes the full experiment sweep. Session.RunAll is a
// plain iteration over the experiment registry (registry.go): these
// options only parameterize the per-experiment plans.
type RunAllOptions struct {
	// TierOneProviders is how many Tier-1 vantages the provider-side
	// tables use (the paper uses 3: AS1, AS3549, AS7018).
	TierOneProviders int
	// Table6Rows / Table6MinPrefixes shape the customer table.
	Table6Rows, Table6MinPrefixes int
	// DailyEpochs / HourlyEpochs size the two persistence series
	// (Figure 6a/7a and 6b/7b). Zero skips the series.
	DailyEpochs, HourlyEpochs int
	// Routers / DriftRouters size the Figure 2(b) refinement.
	Routers, DriftRouters int
	// Figure9ASes is how many rank series to print.
	Figure9ASes int
	// SkipWhatIf drops the failover what-if experiment (the scenario
	// engine demo appended after the paper's tables).
	SkipWhatIf bool
}

// DefaultRunAllOptions mirrors the paper's dimensions.
func DefaultRunAllOptions() RunAllOptions {
	return RunAllOptions{
		TierOneProviders:  3,
		Table6Rows:        8,
		Table6MinPrefixes: 2,
		DailyEpochs:       31,
		HourlyEpochs:      12,
		Routers:           30,
		DriftRouters:      4,
		Figure9ASes:       3,
	}
}

// Summary computes the study's headline paper-vs-measured comparisons.
func (s *Study) Summary() SummaryResult {
	var res SummaryResult
	add := func(quantity, paper, measured string) {
		res.Rows = append(res.Rows, SummaryRow{Quantity: quantity, Paper: paper, Measured: measured})
	}

	typ := s.Table2TypicalLocalPref()
	lo, hi := 100.0, 0.0
	for _, r := range typ {
		if r.Comparable == 0 {
			continue
		}
		p := r.TypicalPct()
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	add("typical localpref range", "94.3-100%", fmt.Sprintf("%s-%s%%", reports.Pct(lo), reports.Pct(hi)))

	cons := s.Figure2aConsistency()
	sum, n := 0.0, 0
	for _, r := range cons {
		if r.Prefixes > 0 {
			sum += r.Pct()
			n++
		}
	}
	if n > 0 {
		add("next-hop-keyed localpref (mean)", "~98%", reports.Pct(sum/float64(n))+"%")
	}

	sa := s.Table5SAPrefixes()
	saLo, saHi := 100.0, 0.0
	for _, r := range sa {
		if r.ConePrefixes < 10 {
			continue
		}
		p := r.SAPct()
		if p < saLo {
			saLo = p
		}
		if p > saHi {
			saHi = p
		}
	}
	add("SA prefix share range", "0-48.6%", fmt.Sprintf("%s-%s%%", reports.Pct(saLo), reports.Pct(saHi)))

	mh := s.Table8Multihoming(3)
	mhm, mhs := 0, 0
	for _, r := range mh {
		mhm += r.Multihomed
		mhs += r.SingleHomed
	}
	if mhm+mhs > 0 {
		add("multihomed SA origins", "~75%", reports.Pct(100*float64(mhm)/float64(mhm+mhs))+"%")
	}

	pe := s.Table10PeerExport(3)
	peLo, peHi := 100.0, 0.0
	for _, r := range pe {
		if len(r.Rows) == 0 {
			continue
		}
		p := r.AnnouncingPct()
		if p < peLo {
			peLo = p
		}
		if p > peHi {
			peHi = p
		}
	}
	add("peers exporting all prefixes", "86-100%", fmt.Sprintf("%s-%s%%", reports.Pct(peLo), reports.Pct(peHi)))

	acc := s.RelationshipAccuracy()
	add("relationship inference accuracy", "94.1-99.55% (Table 4)", reports.Pct(100*acc.Fraction())+"%")
	return res
}
