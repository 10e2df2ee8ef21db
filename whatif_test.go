package policyscope

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/policyscope/policyscope/internal/simulate"
)

func TestStudyWhatIfFailover(t *testing.T) {
	s := smallStudy(t)
	sc, stub, provider, ok := s.FailoverScenario()
	if !ok {
		t.Fatal("no failover scenario available")
	}
	if stub == 0 || provider == 0 {
		t.Fatalf("bad endpoints %v %v", stub, provider)
	}
	rep, err := NewSessionFromStudy(s).WhatIf(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delta.Recomputed == 0 {
		t.Fatal("failover recomputed nothing")
	}
	if rep.Delta.Recomputed >= rep.Delta.TotalPrefixes {
		t.Fatalf("failover recomputed everything (%d/%d): incrementality lost",
			rep.Delta.Recomputed, rep.Delta.TotalPrefixes)
	}
	if len(rep.Delta.Shifts) == 0 {
		t.Fatal("no catchment shifts for a multihomed stub failover")
	}
	// The study itself must stay on the base configuration.
	if s.Topo.Graph.Rel(stub, provider) == 0 {
		t.Fatal("what-if mutated the study topology")
	}

	var buf bytes.Buffer
	if err := WriteWhatIf(&buf, rep, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"What-if", "re-converged", "Prefix", "Collector peers"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestStudyWhatIfEngineChained(t *testing.T) {
	s := smallStudy(t)
	eng, err := s.WhatIfEngine()
	if err != nil {
		t.Fatal(err)
	}
	sc, stub, provider, ok := s.FailoverScenario()
	if !ok {
		t.Skip("no failover subject")
	}
	if _, err := eng.Apply(sc); err != nil {
		t.Fatal(err)
	}
	// Chain a second event on the compounded state: restore the link.
	rel := s.Topo.Graph.Rel(stub, provider)
	restore := simulate.Scenario{Events: []simulate.Event{simulate.RestoreLink(stub, provider, rel)}}
	delta, err := eng.Apply(restore)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Recomputed == 0 {
		t.Fatal("restore recomputed nothing")
	}
	base, err := simulate.Run(s.Topo, simulate.Options{VantagePoints: s.Peers})
	if err != nil {
		t.Fatal(err)
	}
	if diffs := simulate.DiffResults(eng.Result(), base); len(diffs) > 0 {
		t.Fatalf("fail+restore did not round-trip: %v", diffs[:min(3, len(diffs))])
	}
}
