package policyscope

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/core"
	"github.com/policyscope/policyscope/internal/ibgp"
	"github.com/policyscope/policyscope/internal/irr"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/reports"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/topogen"
)

// This file holds the paper's tables and figures, one section each: the
// registration (registry.go describes its fields), then the parameter
// and result types, compute function and renderer it names. DESIGN.md
// ("Layers") has the recipe for adding one.

// ---- Overview ------------------------------------------------------------

func init() {
	register(def[NoParams]{
		name: "overview", title: "Study overview: dimensions, inference accuracy, SA ground truth",
		group: "summary", order: 0,
		run: func(_ context.Context, _ *Session, s *Study, _ NoParams) (experiment.Result, error) {
			acc := s.RelationshipAccuracy()
			tp, fp := saGroundTruthScore(s)
			return OverviewResult{
				ASes:                    len(s.Topo.Order),
				Prefixes:                s.Topo.TotalPrefixes(),
				CollectorPeers:          len(s.Peers),
				LookingGlassCount:       len(s.LookingGlass),
				Seed:                    s.Config.Seed,
				RelationshipAccuracyPct: 100 * acc.Fraction(),
				ObservedEdges:           acc.Total,
				SATruePositives:         tp,
				SAFalsePositives:        fp,
			}, nil
		},
	})
}

// OverviewResult is the study's headline numbers: dimensions, the
// Section 4.3 inference accuracy, and the SA detector's score against
// ground truth.
type OverviewResult struct {
	ASes                    int     `json:"ases"`
	Prefixes                int     `json:"prefixes"`
	CollectorPeers          int     `json:"collector_peers"`
	LookingGlassCount       int     `json:"looking_glass"`
	Seed                    int64   `json:"seed"`
	RelationshipAccuracyPct float64 `json:"relationship_accuracy_pct"`
	ObservedEdges           int     `json:"observed_edges"`
	SATruePositives         int     `json:"sa_true_positives"`
	SAFalsePositives        int     `json:"sa_false_positives"`
}

// Render implements experiment.Result.
func (r OverviewResult) Render(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"policyscope study: %d ASes, %d prefixes, %d collector peers, seed %d\n"+
			"relationship inference (Gao): %.2f%% of %d observed edges correct\n"+
			"SA detector vs ground truth: %d true positives, %d false positives\n\n",
		r.ASes, r.Prefixes, r.CollectorPeers, r.Seed,
		r.RelationshipAccuracyPct, r.ObservedEdges,
		r.SATruePositives, r.SAFalsePositives)
	return err
}

// studyTruth adapts the generator's policies to core.GroundTruth: a
// prefix counts as selectively announced when any configured mechanism —
// origin subset, no-upstream tag, transit exclusion, or provider
// aggregation — could have withheld it somewhere.
type studyTruth struct{ topo *topogen.Topology }

// IsSelectivelyAnnounced implements core.GroundTruth.
func (g studyTruth) IsSelectivelyAnnounced(prefix netx.Prefix) bool {
	origin, ok := g.topo.PrefixOrigin[prefix]
	if !ok {
		return false
	}
	pol := g.topo.Policies[origin]
	if _, sel := pol.Export.OriginProviders[prefix]; sel {
		return true
	}
	if _, tagged := pol.Export.NoUpstream[prefix]; tagged {
		return true
	}
	for _, asn := range g.topo.Order {
		p := g.topo.Policies[asn]
		if p.Export.AggregateSpecifics[prefix] {
			return true
		}
		if p.Export.TransitSelective > 0 {
			for _, provider := range g.topo.Graph.Providers(asn) {
				if p.Export.TransitExcluded(asn, prefix, provider) {
					return true
				}
			}
		}
	}
	return false
}

// saGroundTruthScore validates every vantage's SA detections against the
// generator's configuration, returning (truePositives, falsePositives) —
// the validation the paper could not run.
func saGroundTruthScore(s *Study) (tp, fp int) {
	truth := studyTruth{s.Topo}
	a := &core.ExportAnalyzer{Graph: s.Topo.Graph}
	for _, asn := range s.Peers {
		res := a.SAPrefixes(s.PeerView(asn))
		t, f := core.ScoreSA(res, truth)
		tp += t
		fp += f
	}
	return tp, fp
}

// ---- Table 1 -------------------------------------------------------------

func init() {
	register(def[NoParams]{
		name: "table1", title: "Table 1: vantage ASes", group: "table", order: 10,
		run: table(table1Dataset, renderTable1),
	})
}

// Table1Row describes one vantage AS like the paper's dataset table.
type Table1Row struct {
	AS     bgp.ASN
	Name   string
	Degree int
	Tier   int
	Region topogen.Region
	// LookingGlass marks full-table vantages.
	LookingGlass bool
}

// table1Dataset describes the study's vantage set.
func table1Dataset(s *Study, _ NoParams) []Table1Row {
	lg := make(map[bgp.ASN]bool, len(s.LookingGlass))
	for _, asn := range s.LookingGlass {
		lg[asn] = true
	}
	rows := make([]Table1Row, 0, len(s.Peers))
	for _, asn := range s.Peers {
		info := s.Topo.ASes[asn]
		rows = append(rows, Table1Row{
			AS:           asn,
			Name:         info.Name,
			Degree:       s.Topo.Graph.Degree(asn),
			Tier:         info.Tier,
			Region:       info.Region,
			LookingGlass: lg[asn],
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Degree > rows[j].Degree })
	return rows
}

func renderTable1(rows []Table1Row) *reports.Table {
	t := &reports.Table{
		Title:   "Table 1: vantage ASes (collector peers; LG = full-table Looking Glass)",
		Columns: []string{"AS", "name", "degree", "tier", "location", "LG"},
	}
	for _, r := range rows {
		lg := ""
		if r.LookingGlass {
			lg = "yes"
		}
		t.AddRow(r.AS.String(), r.Name, fmt.Sprintf("%d", r.Degree),
			fmt.Sprintf("%d", r.Tier), string(r.Region), lg)
	}
	return t
}

// ---- Table 2 / Figure 2 --------------------------------------------------

func init() {
	register(def[NoParams]{
		name: "table2", title: "Table 2: typical local preference assignment", group: "table", order: 20,
		run: table(table2TypicalLocalPref, renderTable2),
	})
	register(def[NoParams]{
		name: "figure2a", title: "Figure 2(a): localpref consistency with next-hop AS", group: "figure", order: 40,
		run: func(_ context.Context, _ *Session, s *Study, _ NoParams) (experiment.Result, error) {
			return Figure2Result{
				Title: "Figure 2(a): localpref consistency with next-hop AS",
				Rows:  figure2aConsistency(s),
			}, nil
		},
	})
	register(def[Figure2bParams]{
		name: "figure2b", title: "Figure 2(b): per-router localpref consistency", group: "figure", order: 50,
		defaults: &Figure2bParams{Routers: 30, DriftRouters: 4},
		plan: func(opts RunAllOptions) []any {
			if opts.Routers <= 0 {
				return nil
			}
			return []any{&Figure2bParams{Routers: opts.Routers, DriftRouters: opts.DriftRouters}}
		},
		run: func(_ context.Context, _ *Session, s *Study, p Figure2bParams) (experiment.Result, error) {
			rows, err := figure2bRouterConsistency(s, p)
			if err != nil {
				return nil, err
			}
			return Figure2Result{Title: "Figure 2(b): per-router localpref consistency", Rows: rows}, nil
		},
	})
}

// table2TypicalLocalPref measures per-AS local-preference typicality at
// the Looking Glass vantages.
func table2TypicalLocalPref(s *Study, _ NoParams) []core.TypicalityResult {
	a := &core.ImportAnalyzer{Graph: s.Graph}
	out := make([]core.TypicalityResult, 0, len(s.LookingGlass))
	for _, asn := range s.LookingGlass {
		out = append(out, a.Typicality(s.Result.Tables[asn]))
	}
	return out
}

func renderTable2(rows []core.TypicalityResult) *reports.Table {
	t := &reports.Table{
		Title:   "Table 2: typical local preference assignment (Looking Glass vantages)",
		Columns: []string{"AS", "% typical localpref", "comparable prefixes"},
		Note:    "paper: 94.3-100% across 15 ASes",
	}
	for _, r := range rows {
		t.AddRow(r.AS.String(), reports.Pct(r.TypicalPct()), fmt.Sprintf("%d", r.Comparable))
	}
	return t
}

// Figure2bParams sizes the per-router refinement (figure2b).
type Figure2bParams struct {
	Routers      int `json:"routers"`
	DriftRouters int `json:"drift_routers"`
}

// Figure2Result is a next-hop-consistency series (2a per AS, 2b per
// router).
type Figure2Result struct {
	Title string                   `json:"title"`
	Rows  []core.ConsistencyResult `json:"rows"`
}

// Render implements experiment.Result.
func (r Figure2Result) Render(w io.Writer) error {
	c := &reports.Chart{
		Title:  r.Title,
		XLabel: "AS / router",
		YLabel: "% prefixes with next-hop-keyed localpref",
		Series: map[string][]float64{"consistency": {}},
	}
	for _, row := range r.Rows {
		label := row.AS.String()
		if row.Router > 0 {
			label = fmt.Sprintf("router %d", row.Router)
		}
		c.X = append(c.X, label)
		c.Series["consistency"] = append(c.Series["consistency"], row.Pct())
	}
	return writeAll(w, c)
}

// figure2aConsistency measures next-hop-keyed preference share per
// Looking Glass AS.
func figure2aConsistency(s *Study) []core.ConsistencyResult {
	a := &core.ImportAnalyzer{Graph: s.Graph}
	out := make([]core.ConsistencyResult, 0, len(s.LookingGlass))
	for _, asn := range s.LookingGlass {
		out = append(out, a.NextHopConsistency(s.Result.Tables[asn]))
	}
	return out
}

// figure2bRouterConsistency builds the 30-router refinement of the
// largest Tier-1 and measures per-router consistency.
func figure2bRouterConsistency(s *Study, p Figure2bParams) ([]core.ConsistencyResult, error) {
	t1 := s.TierOneVantages(1)
	if len(t1) == 0 {
		return nil, fmt.Errorf("policyscope: no tier-1 vantage")
	}
	m, err := ibgp.Build(s.Topo, t1[0], s.Result.Tables[t1[0]], ibgp.Options{
		Routers:      p.Routers,
		DriftRouters: p.DriftRouters,
		DriftShare:   0.25,
		Seed:         s.Config.Seed,
	})
	if err != nil {
		return nil, err
	}
	a := &core.ImportAnalyzer{Graph: s.Graph}
	return a.RouterConsistency(m), nil
}

// ---- Table 3 ---------------------------------------------------------------

func init() {
	register(def[Table3Params]{
		name: "table3", title: "Table 3: typical local preference from IRR", group: "table", order: 30,
		defaults: &table3Defaults,
		run:      table(table3IRR, renderTable3),
	})
}

// Table3Params parameterizes the IRR experiment (table3). A zero field
// takes its default.
type Table3Params struct {
	// MinDate filters stale objects, yyyymmdd (paper: during 2002).
	MinDate int `json:"min_date"`
	// MinNeighbors keeps ASes with enough known-relationship imports
	// (the paper used >50 on the real Internet).
	MinNeighbors int `json:"min_neighbors"`
}

var table3Defaults = Table3Params{MinDate: 20020101, MinNeighbors: 4}

// table3IRR generates a registry from ground truth and mines it.
func table3IRR(s *Study, p Table3Params) []core.IRRTypicalityResult {
	if p.MinDate == 0 {
		p.MinDate = table3Defaults.MinDate
	}
	if p.MinNeighbors == 0 {
		p.MinNeighbors = table3Defaults.MinNeighbors
	}
	db := irr.Generate(s.Topo, irr.DefaultGenOptions(s.Config.Seed+1))
	return core.IRRTypicality(db, s.Graph, p.MinDate, p.MinNeighbors)
}

func renderTable3(rows []core.IRRTypicalityResult) *reports.Table {
	t := &reports.Table{
		Title:   "Table 3: typical local preference from IRR (fresh aut-num objects)",
		Columns: []string{"AS", "% typical pairs", "import lines"},
		Note:    "paper: 80-100% across 62 ASes",
	}
	for _, r := range rows {
		t.AddRow(r.AS.String(), reports.Pct(r.TypicalPct()), fmt.Sprintf("%d", r.Neighbors))
	}
	return t
}

// ---- Table 4 / Figure 9 / Table 11 ----------------------------------------

func init() {
	register(def[Table4Params]{
		name: "table4", title: "Table 4: AS relationships verified via BGP communities", group: "table", order: 60,
		defaults: &Table4Params{MaxASes: 9},
		run:      table(table4Verification, renderTable4),
	})
	register(def[NoParams]{
		name: "table11", title: "Table 11: published tagging communities", group: "table", order: 170,
		run: func(_ context.Context, _ *Session, s *Study, _ NoParams) (experiment.Result, error) {
			return table11Scheme(s), nil
		},
	})
	register(def[Figure9Params]{
		name: "figure9", title: "Figure 9: prefixes announced by next-hop ASes", group: "figure", order: 180,
		defaults: &Figure9Params{ASes: 3, MaxRanks: 20},
		plan: func(opts RunAllOptions) []any {
			if opts.Figure9ASes <= 0 {
				return nil
			}
			return []any{&Figure9Params{ASes: opts.Figure9ASes, MaxRanks: 20}}
		},
		run: func(_ context.Context, _ *Session, s *Study, p Figure9Params) (experiment.Result, error) {
			return figure9NeighborRanks(s, p), nil
		},
	})
}

// Table4Params caps the verification table (table4).
type Table4Params struct {
	// MaxASes bounds the row count like the paper's 9-row table.
	MaxASes int `json:"max_ases"`
}

// Table4Row is one AS's verification outcome plus how its semantics were
// obtained.
type Table4Row struct {
	Result core.VerificationResult
	// Published is true when the scheme came from the operator (IRR or
	// web) rather than count-based inference.
	Published bool
}

// table4Verification verifies relationships via communities at tagging
// vantages, published schemes first, inferred otherwise.
func table4Verification(s *Study, p Table4Params) []Table4Row {
	var out []Table4Row
	for _, asn := range s.Peers {
		pol := s.Topo.Policies[asn]
		if pol.Tagging == nil {
			continue
		}
		rib := s.Result.Tables[asn]
		var sem core.CommunitySemantics
		if pol.Tagging.Published {
			sem = core.SemanticsFromScheme(asn, pol.Tagging.Scheme(), pol.Tagging.ClassOf)
		} else {
			sem = core.InferCommunitySemantics(rib, s.HasProviders(asn))
		}
		if len(sem.ClassOf) == 0 {
			continue
		}
		res := core.VerifyRelationships(rib, sem, s.Graph)
		if res.Neighbors == 0 {
			continue
		}
		out = append(out, Table4Row{Result: res, Published: pol.Tagging.Published})
		if p.MaxASes > 0 && len(out) >= p.MaxASes {
			break
		}
	}
	return out
}

func renderTable4(rows []Table4Row) *reports.Table {
	t := &reports.Table{
		Title:   "Table 4: AS relationships verified via BGP communities",
		Columns: []string{"AS", "neighbors", "% verified", "semantics"},
		Note:    "paper: 94.1-99.55% across 9 ASes",
	}
	for _, r := range rows {
		src := "inferred (Fig 9)"
		if r.Published {
			src = "published"
		}
		t.AddRow(r.Result.AS.String(), fmt.Sprintf("%d", r.Result.Neighbors),
			reports.Pct(r.Result.VerifiedPct()), src)
	}
	return t
}

// Table11Result is a published tagging scheme (Found is false when no
// vantage publishes one; Render then prints nothing, like the paper's
// table simply not existing for such a dataset).
type Table11Result struct {
	AS     bgp.ASN                  `json:"as"`
	Scheme []topogen.TagSchemeEntry `json:"scheme,omitempty"`
	Found  bool                     `json:"found"`
}

// table11Scheme returns the first vantage's published tagging scheme.
func table11Scheme(s *Study) Table11Result {
	for _, asn := range s.Peers {
		pol := s.Topo.Policies[asn]
		if pol.Tagging != nil && pol.Tagging.Published {
			return Table11Result{AS: asn, Scheme: pol.Tagging.Scheme(), Found: true}
		}
	}
	return Table11Result{}
}

// Render implements experiment.Result.
func (r Table11Result) Render(w io.Writer) error {
	if !r.Found {
		return nil
	}
	t := &reports.Table{
		Title:   fmt.Sprintf("Table 11: tagging communities published by %v", r.AS),
		Columns: []string{"community", "meaning"},
	}
	for _, e := range r.Scheme {
		t.AddRow(e.Community.String(), e.Description)
	}
	return writeAll(w, t)
}

// Figure9Params sizes the neighbor-rank series (figure9).
type Figure9Params struct {
	// ASes is how many vantages to chart.
	ASes int `json:"ases"`
	// MaxRanks truncates each curve.
	MaxRanks int `json:"max_ranks"`
}

// Figure9Series is one vantage's neighbor-rank curve.
type Figure9Series struct {
	AS    bgp.ASN             `json:"as"`
	Ranks []core.NeighborRank `json:"ranks"`
}

// Figure9Result is a set of neighbor-rank curves in vantage order.
type Figure9Result struct {
	Series []Figure9Series `json:"series"`
}

// figure9NeighborRanks ranks next-hop ASes by announced prefixes for the
// first p.ASes vantages.
func figure9NeighborRanks(s *Study, p Figure9Params) Figure9Result {
	res := Figure9Result{}
	for _, asn := range s.Peers {
		if len(res.Series) >= p.ASes {
			break
		}
		ranks := core.RankNeighbors(s.Result.Tables[asn])
		if p.MaxRanks > 0 && len(ranks) > p.MaxRanks {
			ranks = ranks[:p.MaxRanks]
		}
		res.Series = append(res.Series, Figure9Series{AS: asn, Ranks: ranks})
	}
	return res
}

// Render implements experiment.Result.
func (r Figure9Result) Render(w io.Writer) error {
	for _, s := range r.Series {
		c := &reports.Chart{
			Title:  fmt.Sprintf("Figure 9: prefixes announced by next-hop ASes of %v", s.AS),
			XLabel: "rank (next-hop AS)",
			YLabel: "prefixes",
			LogY:   true,
			Series: map[string][]float64{"prefixes": {}},
		}
		for i, rank := range s.Ranks {
			c.X = append(c.X, fmt.Sprintf("%02d %v", i+1, rank.Neighbor))
			c.Series["prefixes"] = append(c.Series["prefixes"], float64(rank.Prefixes))
		}
		if err := writeAll(w, c); err != nil {
			return err
		}
	}
	return nil
}

// ---- Table 5 / 6 -----------------------------------------------------------

func init() {
	register(def[NoParams]{
		name: "table5", title: "Table 5: selectively announced prefixes per vantage", group: "table", order: 70,
		snapshot: true,
		run:      table(table5SAPrefixes, renderTable5),
	})
	register(def[Table6Params]{
		name: "table6", title: "Table 6: SA prefixes per customer of the top Tier-1 providers", group: "table", order: 80,
		snapshot: true,
		defaults: &Table6Params{Providers: 3, MaxRows: 8, MinPrefixes: 2},
		plan: func(opts RunAllOptions) []any {
			return []any{&Table6Params{
				Providers: opts.TierOneProviders, MaxRows: opts.Table6Rows,
				MinPrefixes: opts.Table6MinPrefixes,
			}}
		},
		run: table(table6CustomerView, renderTable6),
	})
}

// table5SAPrefixes runs the Figure-4 SA detector at every collector peer.
func table5SAPrefixes(s *Study, _ NoParams) []core.SAResult {
	a := &core.ExportAnalyzer{Graph: s.Graph}
	out := make([]core.SAResult, 0, len(s.Peers))
	for _, asn := range s.Peers {
		out = append(out, a.SAPrefixes(s.PeerView(asn)))
	}
	return out
}

func renderTable5(rows []core.SAResult) *reports.Table {
	t := &reports.Table{
		Title:   "Table 5: selectively announced (SA) prefixes per vantage",
		Columns: []string{"AS", "cone prefixes", "SA prefixes", "% SA"},
		Note:    "paper: 0-48.6% across 16 ASes, tens of percent at Tier-1s",
	}
	for _, r := range rows {
		t.AddRow(r.Vantage.String(), fmt.Sprintf("%d", r.ConePrefixes),
			fmt.Sprintf("%d", len(r.SA)), reports.Pct(r.SAPct()))
	}
	return t
}

// Table6Params shapes the per-customer SA table (table6).
type Table6Params struct {
	Providers   int `json:"providers"`
	MaxRows     int `json:"max_rows"`
	MinPrefixes int `json:"min_prefixes"`
}

// table6CustomerView measures per-customer SA shares against the top
// Tier-1 vantages.
func table6CustomerView(s *Study, p Table6Params) []core.CustomerSARow {
	t1 := s.TierOneVantages(p.Providers)
	views := make([]core.BestView, 0, len(t1))
	for _, asn := range t1 {
		views = append(views, s.PeerView(asn))
	}
	a := &core.ExportAnalyzer{Graph: s.Graph}
	rows := a.CustomerView(views, p.MinPrefixes)
	if p.MaxRows > 0 && len(rows) > p.MaxRows {
		rows = rows[:p.MaxRows]
	}
	return rows
}

func renderTable6(rows []core.CustomerSARow) *reports.Table {
	t := &reports.Table{
		Title:   "Table 6: SA prefixes per customer of the top Tier-1 providers",
		Columns: []string{"customer", "prefixes", "SA prefixes", "% SA"},
		Note:    "paper: 17-97% across 8 customers",
	}
	for _, r := range rows {
		t.AddRow(r.Customer.String(), fmt.Sprintf("%d", r.Prefixes),
			fmt.Sprintf("%d", r.SACount), reports.Pct(r.SAPct()))
	}
	return t
}

// ---- Table 7 / 8 / 9 / Case 3 ----------------------------------------------

func init() {
	register(def[ProvidersParams]{
		name: "table7", title: "Table 7: SA prefixes verified via active customer paths", group: "table", order: 90,
		defaults: &providersDefault, plan: planProviders,
		run: table(table7Verification, renderTable7),
	})
	register(def[ProvidersParams]{
		name: "table8", title: "Table 8: multihomed vs single-homed SA origins", group: "table", order: 100,
		snapshot: true,
		defaults: &providersDefault, plan: planProviders,
		run: table(table8Multihoming, renderTable8),
	})
	register(def[ProvidersParams]{
		name: "table9", title: "Table 9: prefix splitting and aggregation among SA prefixes", group: "table", order: 110,
		snapshot: true,
		defaults: &providersDefault, plan: planProviders,
		run: table(table9SplitAggregate, renderTable9),
	})
	register(def[ProvidersParams]{
		name: "case3", title: "Case 3: how SA origins export to vantage-side providers", group: "table", order: 120,
		defaults: &providersDefault, plan: planProviders,
		run: table(case3Selective, renderCase3),
	})
}

// table7Verification verifies SA prefixes at the top Tier-1s.
func table7Verification(s *Study, p ProvidersParams) []core.SAVerification {
	a := &core.ExportAnalyzer{Graph: s.Graph}
	allPaths := s.AllObservedPaths()
	var out []core.SAVerification
	for _, asn := range s.TierOneVantages(p.Providers) {
		sa := a.SAPrefixes(s.PeerView(asn))
		out = append(out, core.VerifySAPrefixes(sa, s.Graph, allPaths, 0))
	}
	return out
}

func renderTable7(rows []core.SAVerification) *reports.Table {
	t := &reports.Table{
		Title:   "Table 7: SA prefixes verified via active customer paths",
		Columns: []string{"provider", "SA prefixes", "% verified"},
		Note:    "paper: 95-97.6% for AS1/AS3549/AS7018",
	}
	for _, r := range rows {
		t.AddRow(r.Provider.String(), fmt.Sprintf("%d", r.SACount), reports.Pct(r.VerifiedPct()))
	}
	return t
}

// table8Multihoming classifies SA origins at the top Tier-1s.
func table8Multihoming(s *Study, p ProvidersParams) []core.MultihomingResult {
	a := &core.ExportAnalyzer{Graph: s.Graph}
	var out []core.MultihomingResult
	for _, asn := range s.TierOneVantages(p.Providers) {
		sa := a.SAPrefixes(s.PeerView(asn))
		out = append(out, core.ClassifyMultihoming(sa, s.Graph))
	}
	return out
}

func renderTable8(rows []core.MultihomingResult) *reports.Table {
	t := &reports.Table{
		Title:   "Table 8: multihomed vs single-homed ASes originating SA prefixes",
		Columns: []string{"provider", "multihomed", "single-homed", "% multihomed"},
		Note:    "paper: ~75% multihomed",
	}
	for _, r := range rows {
		t.AddRow(r.Provider.String(), fmt.Sprintf("%d", r.Multihomed),
			fmt.Sprintf("%d", r.SingleHomed), reports.Pct(r.MultihomedPct()))
	}
	return t
}

// table9SplitAggregate counts Case-1/Case-2 signatures at the top
// Tier-1s.
func table9SplitAggregate(s *Study, p ProvidersParams) []core.SplitAggregateResult {
	a := &core.ExportAnalyzer{Graph: s.Graph}
	var out []core.SplitAggregateResult
	for _, asn := range s.TierOneVantages(p.Providers) {
		view := s.PeerView(asn)
		sa := a.SAPrefixes(view)
		out = append(out, core.AnalyzeSplitAggregate(sa, view, s.Graph))
	}
	return out
}

func renderTable9(rows []core.SplitAggregateResult) *reports.Table {
	t := &reports.Table{
		Title:   "Table 9: prefix splitting and aggregation among SA prefixes",
		Columns: []string{"provider", "SA prefixes", "splitting", "aggregating"},
		Note:    "paper: both minority causes (127-218 of 3431-9120)",
	}
	for _, r := range rows {
		t.AddRow(r.Provider.String(), fmt.Sprintf("%d", r.SACount),
			fmt.Sprintf("%d", r.Splitting), fmt.Sprintf("%d", r.Aggregating))
	}
	return t
}

// case3Selective runs the selective-announcing breakdown at the top
// Tier-1s.
func case3Selective(s *Study, p ProvidersParams) []core.SelectiveAnnouncingResult {
	a := &core.ExportAnalyzer{Graph: s.Graph}
	pathIdx := s.PathIndex()
	var out []core.SelectiveAnnouncingResult
	for _, asn := range s.TierOneVantages(p.Providers) {
		sa := a.SAPrefixes(s.PeerView(asn))
		out = append(out, core.AnalyzeSelectiveAnnouncing(sa, s.Graph, pathIdx))
	}
	return out
}

func renderCase3(rows []core.SelectiveAnnouncingResult) *reports.Table {
	t := &reports.Table{
		Title:   "Case 3 (Section 5.1.5): how SA origins export to vantage-side providers",
		Columns: []string{"provider", "SA", "% identified", "% exported", "% withheld"},
		Note:    "paper (AS1): ~90% identified; 21% exported, 79% withheld",
	}
	for _, r := range rows {
		t.AddRow(r.Provider.String(), fmt.Sprintf("%d", r.SACount),
			reports.Pct(r.IdentifiedPct()), reports.Pct(r.ExportedPct()), reports.Pct(r.WithheldPct()))
	}
	return t
}

// ---- Table 10 ---------------------------------------------------------------

func init() {
	register(def[ProvidersParams]{
		name: "table10", title: "Table 10: peers announcing all their prefixes directly", group: "table", order: 130,
		snapshot: true,
		defaults: &providersDefault, plan: planProviders,
		run: table(table10PeerExport, renderTable10),
	})
}

// table10PeerExport measures export-to-peer behaviour at the top
// Tier-1s.
func table10PeerExport(s *Study, p ProvidersParams) []core.PeerExportResult {
	universe := core.OriginUniverse(s.AllPeerViews())
	var out []core.PeerExportResult
	for _, asn := range s.TierOneVantages(p.Providers) {
		out = append(out, core.AnalyzePeerExport(s.PeerView(asn), s.Graph, universe))
	}
	return out
}

func renderTable10(rows []core.PeerExportResult) *reports.Table {
	t := &reports.Table{
		Title:   "Table 10: peers announcing all their prefixes directly",
		Columns: []string{"AS", "peers", "announcing all", "%"},
		Note:    "paper: 86-100% for AS1/AS3549/AS7018",
	}
	for _, r := range rows {
		t.AddRow(r.Vantage.String(), fmt.Sprintf("%d", len(r.Rows)),
			fmt.Sprintf("%d", r.Announcing()), reports.Pct(r.AnnouncingPct()))
	}
	return t
}

// ---- Figures 6 and 7 ---------------------------------------------------------

func init() {
	defaults := &PersistenceParams{Epochs: 31, EpochSeconds: 86400}
	register(def[PersistenceParams]{
		name: "figure6", title: "Figure 6: persistence of SA prefixes", group: "figure", order: 190,
		defaults: defaults, plan: planPersistence,
		run: persistenceFigure(6),
	})
	register(def[PersistenceParams]{
		name: "figure7", title: "Figure 7: SA uptime histogram", group: "figure", order: 200,
		defaults: defaults, plan: planPersistence,
		run: persistenceFigure(7),
	})
}

// planPersistence is the RunAll plan of both figures: the daily and the
// hourly series.
func planPersistence(opts RunAllOptions) []any {
	var out []any
	if opts.DailyEpochs > 0 {
		out = append(out, &PersistenceParams{
			Epochs: opts.DailyEpochs, ChurnFraction: Prob(0.008), EpochSeconds: 86400,
		})
	}
	if opts.HourlyEpochs > 0 {
		out = append(out, &PersistenceParams{
			Epochs: opts.HourlyEpochs, ChurnFraction: Prob(0.003), EpochSeconds: 3600,
		})
	}
	return out
}

// persistenceFigure is the run function of both figures: one series,
// memoized per normalized parameter set (it is by far the most expensive
// query), charted as Figure 6 or Figure 7.
func persistenceFigure(figure int) runFunc[PersistenceParams] {
	return func(_ context.Context, se *Session, s *Study, p PersistenceParams) (experiment.Result, error) {
		k := p.normalized()
		res, err := se.persist.get(k, func() (core.PersistenceResult, error) { return persistenceSeries(s, k) })
		if err != nil {
			return nil, err
		}
		return PersistenceChartResult{Figure: figure, XLabel: k.xlabel(), Series: res}, nil
	}
}

// PersistenceParams sizes a persistence series (figure6, figure7).
// Zero Epochs/EpochSeconds take the daily defaults (31 epochs, 86400s);
// ChurnFraction nil takes 0.008, while an explicit 0 runs a no-churn
// control series (same pointer semantics as TopologyTuning).
type PersistenceParams struct {
	// Epochs is the series length (31 daily epochs in Fig 6a, 12-24
	// hourly in Fig 6b).
	Epochs int `json:"epochs"`
	// ChurnFraction is the per-epoch share of multihomed origins
	// re-rolling one prefix's export policy.
	ChurnFraction *float64 `json:"churn_fraction"`
	// EpochSeconds spaces snapshot timestamps (86400 daily, 3600 hourly).
	EpochSeconds uint32 `json:"epoch_seconds"`
}

// persistKey is a persistence parameter set with defaults resolved — a
// comparable value, so equal effective parameter sets share one
// memoized series regardless of pointer identity.
type persistKey struct {
	epochs       int
	churn        float64
	epochSeconds uint32
}

// normalized resolves the persistence defaults. An explicit
// ChurnFraction of 0 survives (no-churn control series).
func (p PersistenceParams) normalized() persistKey {
	// 0.008 is tuned so roughly a sixth of ever-SA prefixes shift over a
	// 31-epoch series, the paper's Figure 7(a) observation.
	k := persistKey{epochs: p.Epochs, churn: 0.008, epochSeconds: p.EpochSeconds}
	if k.epochs <= 0 {
		k.epochs = 31
	}
	if p.ChurnFraction != nil {
		k.churn = *p.ChurnFraction
	}
	if k.epochSeconds == 0 {
		k.epochSeconds = 86400
	}
	return k
}

// xlabel names the epoch unit for chart axes.
func (k persistKey) xlabel() string {
	if k.epochSeconds == 3600 {
		return "hour"
	}
	return "day"
}

// persistenceSeries replays an epoch series of export-policy churn and
// analyzes SA persistence at the largest Tier-1. The series runs on a
// what-if engine — a copy-on-write clone of the study's base engine —
// with each epoch's churn one Apply, so the study stays on the base
// configuration and concurrent queries never observe mid-series policies.
// Each epoch's view is taken right after its Apply: the engine writes its
// tables in place on the next one.
func persistenceSeries(s *Study, k persistKey) (core.PersistenceResult, error) {
	t1 := s.TierOneVantages(1)
	if len(t1) == 0 {
		return core.PersistenceResult{}, fmt.Errorf("policyscope: no tier-1 vantage")
	}
	en, err := s.WhatIfEngine()
	if err != nil {
		return core.PersistenceResult{}, err
	}
	views := make([]core.BestView, 0, k.epochs)
	times := make([]uint32, 0, k.epochs)
	for epoch := 0; epoch < k.epochs; epoch++ {
		if epoch > 0 {
			rng := rand.New(rand.NewSource(s.Config.Seed + 7 + int64(epoch)))
			if _, err := en.Apply(simulate.Scenario{Events: churnEvents(s.Topo, rng, k.churn)}); err != nil {
				return core.PersistenceResult{}, err
			}
		}
		views = append(views, core.ViewFromRIB(en.Result().Tables[t1[0]]))
		times = append(times, uint32(epoch)*k.epochSeconds)
	}
	return core.AnalyzePersistence(&core.ExportAnalyzer{Graph: s.Graph}, views, times), nil
}

// churnEvents draws one epoch of export-policy churn: network operators
// "change prefix exporting pattern at different time", so roughly
// fraction of the multihomed origins re-roll one prefix's announcement —
// to every provider, to a random proper subset of them, or to every
// provider with the no-upstream community scoped to one. Each re-roll
// restates the prefix's whole origin export policy: one sa_toggle per
// provider, then a no_upstream (provider 0 clears it). rng drives which
// origins churn and how; pass a per-epoch-seeded one for a reproducible
// series.
func churnEvents(topo *topogen.Topology, rng *rand.Rand, fraction float64) []simulate.Event {
	var events []simulate.Event
	for _, asn := range topo.Order {
		providers := topo.Graph.Providers(asn)
		prefixes := topo.ASes[asn].Prefixes
		if len(providers) < 2 || len(prefixes) == 0 || rng.Float64() >= fraction {
			continue
		}
		prefix := prefixes[rng.Intn(len(prefixes))]
		var withheld map[bgp.ASN]bool
		var tag bgp.ASN
		switch rng.Intn(3) {
		case 1:
			kept := 1 + rng.Intn(len(providers)-1)
			withheld = make(map[bgp.ASN]bool, len(providers)-kept)
			for _, idx := range rng.Perm(len(providers))[kept:] {
				withheld[providers[idx]] = true
			}
		case 2:
			tag = providers[rng.Intn(len(providers))]
		}
		for _, p := range providers {
			events = append(events, simulate.ToggleProviderAnnouncement(prefix, p, !withheld[p]))
		}
		events = append(events, simulate.TagNoUpstream(prefix, tag))
	}
	return events
}

// PersistenceChartResult carries a persistence series rendered as
// Figure 6 (per-epoch counts) or Figure 7 (uptime histogram).
type PersistenceChartResult struct {
	Figure int                    `json:"figure"` // 6 or 7
	XLabel string                 `json:"x_label"`
	Series core.PersistenceResult `json:"series"`
}

// Render implements experiment.Result.
func (r PersistenceChartResult) Render(w io.Writer) error {
	res := r.Series
	if r.Figure == 7 {
		c := &reports.Chart{
			Title:       fmt.Sprintf("Figure 7: SA uptime for %v (shifting share %.2f)", res.Vantage, res.ShiftingShare()),
			XLabel:      "uptime (" + r.XLabel + "s)",
			YLabel:      "prefixes",
			Series:      map[string][]float64{"Remaining SA": {}, "Shifting SA to non-SA": {}},
			SeriesOrder: []string{"Remaining SA", "Shifting SA to non-SA"},
		}
		for _, b := range res.UptimeHistogram() {
			c.X = append(c.X, fmt.Sprintf("%d", b.Uptime))
			c.Series["Remaining SA"] = append(c.Series["Remaining SA"], float64(b.RemainingSA))
			c.Series["Shifting SA to non-SA"] = append(c.Series["Shifting SA to non-SA"], float64(b.Shifting))
		}
		return writeAll(w, c)
	}
	c := &reports.Chart{
		Title:       fmt.Sprintf("Figure 6: persistence of SA prefixes for %v", res.Vantage),
		XLabel:      r.XLabel,
		YLabel:      "prefixes",
		LogY:        true,
		Series:      map[string][]float64{"All prefixes": {}, "SA prefixes": {}},
		SeriesOrder: []string{"All prefixes", "SA prefixes"},
	}
	for i, p := range res.Points {
		c.X = append(c.X, fmt.Sprintf("%d", i+1))
		c.Series["All prefixes"] = append(c.Series["All prefixes"], float64(p.AllPrefixes))
		c.Series["SA prefixes"] = append(c.Series["SA prefixes"], float64(p.SAPrefixes))
	}
	return writeAll(w, c)
}

// ---- Summary -----------------------------------------------------------------

func init() {
	register(def[NoParams]{
		name: "summary", title: "Summary: paper vs measured", group: "summary", order: 220,
		run: func(_ context.Context, _ *Session, s *Study, _ NoParams) (experiment.Result, error) {
			return summarize(s), nil
		},
	})
}

// SummaryRow is one paper-vs-measured comparison line.
type SummaryRow struct {
	Quantity string `json:"quantity"`
	Paper    string `json:"paper"`
	Measured string `json:"measured"`
}

// SummaryResult is the headline paper-vs-measured comparison.
type SummaryResult struct {
	Rows []SummaryRow `json:"rows"`
}

// Render implements experiment.Result.
func (r SummaryResult) Render(w io.Writer) error {
	t := &reports.Table{
		Title:   "Summary: paper vs measured",
		Columns: []string{"quantity", "paper", "measured"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Quantity, row.Paper, row.Measured)
	}
	return writeAll(w, t)
}

// summarize computes the study's headline paper-vs-measured comparisons.
func summarize(s *Study) SummaryResult {
	var res SummaryResult
	add := func(quantity, paper, measured string) {
		res.Rows = append(res.Rows, SummaryRow{Quantity: quantity, Paper: paper, Measured: measured})
	}

	typ := table2TypicalLocalPref(s, NoParams{})
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

	cons := figure2aConsistency(s)
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

	sa := table5SAPrefixes(s, NoParams{})
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

	mh := table8Multihoming(s, ProvidersParams{Providers: 3})
	mhm, mhs := 0, 0
	for _, r := range mh {
		mhm += r.Multihomed
		mhs += r.SingleHomed
	}
	if mhm+mhs > 0 {
		add("multihomed SA origins", "~75%", reports.Pct(100*float64(mhm)/float64(mhm+mhs))+"%")
	}

	pe := table10PeerExport(s, ProvidersParams{Providers: 3})
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
