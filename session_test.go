package policyscope

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"

	"github.com/policyscope/policyscope/internal/core"
	"github.com/policyscope/policyscope/internal/topogen"
)

func smallSession(t *testing.T) *Session {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumASes = 250
	cfg.Seed = 7
	cfg.CollectorPeers = 14
	cfg.LookingGlassASes = 8
	return NewSession(cfg)
}

func TestSessionCatalogCompleteness(t *testing.T) {
	names := make(map[string]bool)
	for _, info := range Experiments() {
		names[info.Name] = true
	}
	// Every paper table/figure plus the extensions must be runnable by
	// name.
	for _, want := range []string{
		"overview", "table1", "table2", "table3", "table4", "table5",
		"table6", "table7", "table8", "table9", "table10", "table11",
		"figure2a", "figure2b", "figure6", "figure7", "figure9",
		"case3", "atoms", "decision", "multisite", "whatif", "summary",
	} {
		if !names[want] {
			t.Errorf("experiment %q missing from catalog", want)
		}
	}
}

func TestSessionRunByName(t *testing.T) {
	se := smallSession(t)
	res, err := se.Run(context.Background(), "table5", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.(RowsResult[core.SAResult]).Rows
	s, err := se.Study()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(s.Peers) {
		t.Fatalf("table5 rows %d, peers %d", len(rows), len(s.Peers))
	}
	// Parameters from JSON.
	res, err = se.RunJSON(context.Background(), "table6", []byte(`{"providers": 2, "max_rows": 4, "min_prefixes": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.(RowsResult[core.CustomerSARow]).Rows; len(rows) > 4 {
		t.Fatalf("max_rows ignored: %d rows", len(rows))
	}
	// Parameters from key=value flags.
	res, err = se.RunKV(context.Background(), "figure9", []string{"ases=2", "max_ranks=5"})
	if err != nil {
		t.Fatal(err)
	}
	f9 := res.(Figure9Result)
	if len(f9.Series) != 2 {
		t.Fatalf("figure9 series %d", len(f9.Series))
	}
	for _, s := range f9.Series {
		if len(s.Ranks) > 5 {
			t.Fatalf("max_ranks ignored: %d", len(s.Ranks))
		}
	}
	// Unknown names and unknown params fail loudly.
	if _, err := se.Run(context.Background(), "table99", nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := se.RunJSON(context.Background(), "table6", []byte(`{"bogus": 1}`)); err == nil {
		t.Fatal("unknown param accepted")
	}
	// Every result renders.
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Fatalf("figure9 render: %q", buf.String())
	}
}

// TestSessionConcurrentQueries drives well over 8 concurrent queries —
// a mix of experiments and what-ifs, with deliberate duplicates so the
// lazy gates and the persistence memo are hit from multiple goroutines
// at once. Run under -race (the CI race job does).
func TestSessionConcurrentQueries(t *testing.T) {
	se := smallSession(t)
	type query struct {
		name string
		raw  string
	}
	queries := []query{
		{"overview", ""},
		{"table2", ""},
		{"table3", ""},
		{"table5", ""},
		{"table7", ""}, // shares the path index with case3
		{"case3", ""},
		{"figure2a", ""},
		{"figure2b", `{"routers": 6, "drift_routers": 1}`},
		{"atoms", ""},
		{"decision", ""},
		{"multisite", ""},
		{"figure6", `{"epochs": 3, "churn_fraction": 0.05}`},
		{"figure7", `{"epochs": 3, "churn_fraction": 0.05}`}, // same memoized series
		{"whatif", ""},
		{"whatif", `{"max_rows": 5}`},
		{"summary", ""},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(queries))
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q query) {
				defer wg.Done()
				res, err := se.RunJSON(context.Background(), q.name, []byte(q.raw))
				if err != nil {
					errs <- err
					return
				}
				if err := res.Render(io.Discard); err != nil {
					errs <- err
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The shared study stayed on the base configuration.
	s, err := se.Study()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Result.Unconverged) != 0 {
		t.Fatal("study state corrupted")
	}
}

// TestSessionPersistenceZeroChurn: an explicit churn_fraction of 0 is a
// no-churn control series, not a silent fall-back to the default (the
// same zero-vs-unset semantics TopologyTuning gained).
func TestSessionPersistenceZeroChurn(t *testing.T) {
	se := smallSession(t)
	res, err := se.RunJSON(context.Background(), "figure6", []byte(`{"epochs": 3, "churn_fraction": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	series := res.(PersistenceChartResult).Series
	if len(series.Points) != 3 {
		t.Fatalf("points = %d", len(series.Points))
	}
	for _, p := range series.Points[1:] {
		if p.SAPrefixes != series.Points[0].SAPrefixes || p.AllPrefixes != series.Points[0].AllPrefixes {
			t.Fatalf("zero churn still churned: %+v", series.Points)
		}
	}
}

// TestSessionWhatIfMatchesStudyWhatIf proves the copy-on-write fast
// path answers scenarios identically to a fresh engine built for the
// one call.
func TestSessionWhatIfMatchesStudyWhatIf(t *testing.T) {
	se := smallSession(t)
	s, err := se.Study()
	if err != nil {
		t.Fatal(err)
	}
	sc, _, _, ok := s.FailoverScenario()
	if !ok {
		t.Skip("no failover subject")
	}
	eng, err := s.WhatIfEngine()
	if err != nil {
		t.Fatal(err)
	}
	slow, err := s.whatIfOn(eng, sc)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := se.WhatIf(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(slow)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(fast)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("clone-based what-if diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestSweepExperiment runs the registry's sweep entry end to end: spec
// expansion, the sharded executor over session engine clones, record
// capping, rendering, and worker-count-independent JSON.
func TestSweepExperiment(t *testing.T) {
	se := smallSession(t)
	raw := `{"spec": {"generators": [{"kind": "all_single_link_failures", "max": 5}]}, "workers": 4, "max_records": 3}`
	res, err := se.RunJSON(context.Background(), "sweep", []byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	sr := res.(SweepResult)
	if sr.Aggregate.Scenarios != 5 {
		t.Fatalf("aggregate scenarios = %d", sr.Aggregate.Scenarios)
	}
	if len(sr.Records) != 3 || sr.Records[0].Index != 0 || sr.Records[2].Index != 2 {
		t.Fatalf("record cap or ordering wrong: %+v", sr.Records)
	}
	var buf bytes.Buffer
	if err := sr.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Sweep") || !strings.Contains(buf.String(), "Most critical") {
		t.Fatalf("render output %q", buf.String())
	}
	a, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	// A different worker count yields byte-identical results.
	res2, err := se.RunJSON(context.Background(), "sweep",
		[]byte(`{"spec": {"generators": [{"kind": "all_single_link_failures", "max": 5}]}, "workers": 1, "max_records": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("sweep experiment not deterministic across worker counts:\n%s\nvs\n%s", a, b)
	}
	// A bad spec surfaces as a typed parameter error.
	if _, err := se.RunJSON(context.Background(), "sweep",
		[]byte(`{"spec": {"generators": [{"kind": "nope"}]}}`)); err == nil {
		t.Fatal("bad generator accepted")
	}
}

// TestRunAllJSONDeterminism: the acceptance bar for the JSON surface —
// two independent sessions at the same seed marshal byte-identically.
func TestRunAllJSONDeterminism(t *testing.T) {
	opts := RunAllOptions{
		TierOneProviders: 3, Table6Rows: 8, Table6MinPrefixes: 2,
		DailyEpochs: 2, HourlyEpochs: 0, Routers: 6, DriftRouters: 1, Figure9ASes: 2,
	}
	marshal := func() []byte {
		t.Helper()
		doc, err := smallSession(t).RunAllJSON(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := marshal(), marshal()
	if !bytes.Equal(a, b) {
		t.Fatal("RunAllJSON not byte-stable across identical sessions")
	}
	// The document covers the catalog (minus explicitly skipped runs).
	var doc struct {
		Experiments []struct {
			Name   string          `json:"name"`
			Result json.RawMessage `json:"result"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, e := range doc.Experiments {
		if len(e.Result) == 0 {
			t.Errorf("experiment %s has empty result", e.Name)
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"overview", "table1", "table10", "figure6", "whatif", "summary"} {
		if !seen[want] {
			t.Errorf("RunAllJSON missing %s", want)
		}
	}
}

func TestSessionLookingGlass(t *testing.T) {
	se := smallSession(t)
	srv, err := se.LookingGlass()
	if err != nil {
		t.Fatal(err)
	}
	ases := srv.ASes()
	s, _ := se.Study()
	if len(ases) != len(s.Peers) {
		t.Fatalf("LG vantages %d, peers %d", len(ases), len(s.Peers))
	}
	var buf bytes.Buffer
	if err := srv.Query(ases[0], "show ip bgp", &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty looking glass output")
	}
}

// TestTuningZeroHonored is the TopologyTuning satellite: an explicit
// zero must reach the generator (the old float fields silently treated
// 0 as "keep default").
func TestTuningZeroHonored(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumASes = 120
	def := topogen.DefaultConfig(cfg.NumASes, cfg.Seed)

	// Nil tuning and nil fields keep defaults.
	if got := cfg.TopologyConfig(); got.SelectiveAnnounceProb != def.SelectiveAnnounceProb ||
		got.TaggingProb != def.TaggingProb || got.MeanPrefixesStub != def.MeanPrefixesStub {
		t.Fatalf("nil tuning changed config: %+v", got)
	}
	cfg.Tuning = &TopologyTuning{}
	if got := cfg.TopologyConfig(); got.SelectiveAnnounceProb != def.SelectiveAnnounceProb {
		t.Fatal("nil pointer did not keep default")
	}

	// Explicit zeros are applied verbatim.
	cfg.Tuning = &TopologyTuning{
		SelectiveAnnounceProb: Prob(0),
		AtypicalPrefProb:      Prob(0),
		TaggingProb:           Prob(0),
		PeerSelectiveProb:     Prob(0),
	}
	got := cfg.TopologyConfig()
	if got.SelectiveAnnounceProb != 0 || got.AtypicalPrefProb != 0 ||
		got.TaggingProb != 0 || got.PeerSelectiveProb != 0 {
		t.Fatalf("explicit zeros not honored: %+v", got)
	}
	// And non-zero overrides still work.
	cfg.Tuning = &TopologyTuning{TaggingProb: Prob(0.9), MeanPrefixesStub: Prob(1.5)}
	got = cfg.TopologyConfig()
	if got.TaggingProb != 0.9 || got.MeanPrefixesStub != 1.5 {
		t.Fatalf("overrides not applied: %+v", got)
	}

	// Behavioral proof: TaggingProb=0 yields a topology with no tagging
	// policies at all.
	cfg.Tuning = &TopologyTuning{TaggingProb: Prob(0)}
	topo, err := topogen.Generate(cfg.TopologyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range topo.Order {
		if pol := topo.Policies[asn]; pol != nil && pol.Tagging != nil {
			t.Fatalf("AS %v deployed tagging despite TaggingProb=0", asn)
		}
	}
}
