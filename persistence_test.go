package policyscope

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/topogen"
)

// TestPersistenceChurnMatchesFullResim is the persistence series'
// differential: epochs of churn compounded on one what-if engine, drawn
// the way persistenceSeries draws them, must leave after every Apply the
// vantage tables (every candidate and every best route) and reach counts
// that a from-scratch simulation of the base topology carrying the same
// cumulative churn converges to, with nothing unconverged.
func TestPersistenceChurnMatchesFullResim(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := smallStudySeeded(t, seed)
			en, err := s.WhatIfEngine()
			if err != nil {
				t.Fatal(err)
			}
			mutated := s.Topo.Clone()
			for epoch := 1; epoch <= 3; epoch++ {
				rng := rand.New(rand.NewSource(s.Config.Seed + 7 + int64(epoch)))
				sc := simulate.Scenario{Events: churnEvents(s.Topo, rng, 0.1)}
				if len(sc.Events) == 0 {
					t.Fatalf("epoch %d: no churn at fraction 0.1", epoch)
				}
				if _, err := en.Apply(sc); err != nil {
					t.Fatal(err)
				}
				if n := en.UnconvergedCount(); n != 0 {
					t.Fatalf("epoch %d: %d prefixes unconverged", epoch, n)
				}
				if err := sc.ApplyToTopology(mutated); err != nil {
					t.Fatal(err)
				}
				full, err := simulate.Run(mutated, simulate.Options{VantagePoints: s.Peers})
				if err != nil {
					t.Fatal(err)
				}
				if diffs := simulate.DiffResults(en.Result(), full); len(diffs) > 0 {
					t.Fatalf("epoch %d (%d events): series diverges from a full run: %v",
						epoch, len(sc.Events), diffs[:min(3, len(diffs))])
				}
			}
		})
	}
}

// TestChurnEvents: every churned prefix is restated to its origin's
// providers only, kept by at least one of them and tagged no-upstream at
// most at one; the draw is reproducible under a seed, and a negative
// fraction is the no-churn control.
func TestChurnEvents(t *testing.T) {
	topo, err := topogen.Generate(topogen.DefaultConfig(300, 17))
	if err != nil {
		t.Fatal(err)
	}
	events := churnEvents(topo, rand.New(rand.NewSource(99)), 0.5)
	kept := map[netx.Prefix]int{}
	tagged := map[netx.Prefix]bool{}
	for _, ev := range events {
		providers := topo.Graph.Providers(topo.PrefixOrigin[ev.Prefix])
		switch ev.Kind {
		case simulate.EventSAToggle:
			if !slices.Contains(providers, ev.Provider) {
				t.Fatalf("%v: sa_toggle names non-provider %v", ev.Prefix, ev.Provider)
			}
			if ev.Announce {
				kept[ev.Prefix]++
			}
		case simulate.EventNoUpstream:
			if ev.Provider != 0 && !slices.Contains(providers, ev.Provider) {
				t.Fatalf("%v: no_upstream names non-provider %v", ev.Prefix, ev.Provider)
			}
			if tagged[ev.Prefix] {
				t.Fatalf("%v: restated twice in one epoch", ev.Prefix)
			}
			tagged[ev.Prefix] = true
		default:
			t.Fatalf("unexpected event kind %v", ev.Kind)
		}
	}
	if len(tagged) == 0 {
		t.Fatal("no prefixes churned at fraction 0.5")
	}
	for prefix := range tagged {
		if kept[prefix] == 0 {
			t.Fatalf("%v: withheld from every provider", prefix)
		}
	}
	if again := churnEvents(topo, rand.New(rand.NewSource(99)), 0.5); !reflect.DeepEqual(again, events) {
		t.Fatal("churn not reproducible under identical seeds")
	}
	if none := churnEvents(topo, rand.New(rand.NewSource(99)), -1); len(none) != 0 {
		t.Fatalf("negative fraction churned %d events", len(none))
	}
}

// TestEndToEndPersistence reproduces Figures 6–7 on a short series:
// SA counts stay positive every epoch and the shifting share is a
// minority, like the paper's "about one sixth".
func TestEndToEndPersistence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumASes = 250
	cfg.Seed = 109
	cfg.CollectorPeers = 8
	res, err := NewSession(cfg).Run(context.Background(), "figure6",
		&PersistenceParams{Epochs: 6, ChurnFraction: Prob(0.04)})
	if err != nil {
		t.Fatal(err)
	}
	series := res.(PersistenceChartResult).Series
	if len(series.Points) != 6 {
		t.Fatalf("points: %d", len(series.Points))
	}
	for i, pt := range series.Points {
		if pt.SAPrefixes == 0 {
			t.Errorf("epoch %d: zero SA prefixes", i)
		}
		if pt.AllPrefixes < pt.ConePrefixes || pt.ConePrefixes < pt.SAPrefixes {
			t.Fatalf("epoch %d: inconsistent counts %+v", i, pt)
		}
	}
	if share := series.ShiftingShare(); share > 0.6 {
		t.Errorf("shifting share %.2f: churn dominates, persistence signal lost", share)
	}
	remaining := 0
	for _, b := range series.UptimeHistogram() {
		remaining += b.RemainingSA
	}
	if remaining == 0 {
		t.Error("no prefix remained SA through its uptime")
	}
}
