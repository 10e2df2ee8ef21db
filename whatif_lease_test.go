package policyscope

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/obs"
)

// whatIfOn is the reference Session.WhatIf's lease is held to: sc applied
// to eng — a fresh clone of the base engine — and summarized.
func (s *Study) whatIfOn(eng *simulate.Engine, sc simulate.Scenario) (*WhatIfReport, error) {
	delta, err := eng.Apply(sc)
	if err != nil {
		return nil, err
	}
	return s.whatIfReport(sc, delta), nil
}

// leaseScenarios draws a mix over the kinds of restore the lease knows:
// link batches (rolled back, engine kept), policy and prefix batches
// (engine dropped) and batches that fail validation (engine untouched).
func leaseScenarios(t *testing.T, s *Study) []simulate.Scenario {
	t.Helper()
	edges := s.Topo.Graph.Edges()
	var prefixes []netx.Prefix
	for p := range s.Topo.PrefixOrigin {
		prefixes = append(prefixes, p)
	}
	netx.SortPrefixes(prefixes)
	if len(edges) < 12 || len(prefixes) < 4 {
		t.Fatalf("topology too small: %d edges, %d prefixes", len(edges), len(prefixes))
	}
	var scs []simulate.Scenario
	add := func(kind string, events ...simulate.Event) {
		scs = append(scs, simulate.Scenario{Name: fmt.Sprintf("%s-%d", kind, len(scs)), Events: events})
	}
	for i := 0; i < 4; i++ {
		e, f := edges[i*len(edges)/4], edges[i*len(edges)/4+1]
		add("link", simulate.FailLink(e.A, e.B))
		add("links", simulate.FailLink(e.A, e.B), simulate.FailLink(f.A, f.B), simulate.RestoreLink(e.A, e.B, s.Topo.Graph.Rel(e.A, e.B)))
		add("policy", simulate.SetLocalPref(e.A, e.B, 40))
		add("prefix", simulate.WithdrawPrefix(prefixes[i*len(prefixes)/4]))
		add("prefix", simulate.AnnouncePrefix(netx.MustParsePrefix(fmt.Sprintf("203.0.%d.0/24", 113+i)), e.B))
		add("invalid", simulate.FailLink(e.A, e.A))
		add("invalid", simulate.FailLink(e.A, e.B), simulate.WithdrawPrefix(netx.MustParsePrefix("198.51.100.0/24")))
	}
	return scs
}

// TestWhatIfLeaseEqualsFreshClone: eight goroutines put interleaved link,
// policy, prefix and invalid scenarios through one session. Whatever
// engine a call was handed — a new clone, one another goroutine just
// rolled back — its report is byte-equal to the scenario applied to a
// fresh clone of the base, and its refusal is the fresh clone's refusal.
func TestWhatIfLeaseEqualsFreshClone(t *testing.T) {
	se := smallSession(t)
	s, err := se.Study()
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.baseEngine()
	if err != nil {
		t.Fatal(err)
	}
	scs := leaseScenarios(t, s)
	want := make([]string, len(scs))
	kinds := make(map[bool]int)
	for i, sc := range scs {
		rep, err := s.whatIfOn(base.Clone(), sc)
		kinds[err == nil]++
		if err != nil {
			want[i] = "error: " + err.Error()
			continue
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(b)
	}
	if kinds[true] == 0 || kinds[false] == 0 {
		t.Fatalf("scenario mix has %d valid and %d invalid batches", kinds[true], kinds[false])
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range scs {
					// Each goroutine walks the list from its own offset, so
					// an engine's successive holders ask different kinds.
					i := (k*5 + g*3 + round) % len(scs)
					got := ""
					rep, err := se.WhatIf(context.Background(), scs[i])
					if err != nil {
						got = "error: " + err.Error()
					} else if b, err := json.Marshal(rep); err != nil {
						got = "marshal: " + err.Error()
					} else {
						got = string(b)
					}
					if got != want[i] {
						t.Errorf("goroutine %d, %s: answer differs from a fresh clone's\n got %.300s\nwant %.300s", g, scs[i].Name, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWhatIfReportOutlivesLease: a report keeps nothing of the Delta its
// lease was built in, which the scratch engine rebuilds for the next
// scenario. 32 sequential what-ifs — link failures, hijacks, withdrawals
// and batches that shift nothing — run on one session's reused scratch
// engine, every report is kept, and only at the end are they marshaled:
// each must be the bytes the same scenario reports on a fresh clone.
func TestWhatIfReportOutlivesLease(t *testing.T) {
	se := smallSession(t)
	s, err := se.Study()
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.baseEngine()
	if err != nil {
		t.Fatal(err)
	}
	edges := s.Topo.Graph.Edges()
	var prefixes []netx.Prefix
	for p := range s.Topo.PrefixOrigin {
		prefixes = append(prefixes, p)
	}
	netx.SortPrefixes(prefixes)
	var scs []simulate.Scenario
	for i := 0; len(scs) < 32; i++ {
		e := edges[(i*13)%len(edges)]
		p := prefixes[(i*7)%len(prefixes)]
		var events []simulate.Event
		switch i % 8 {
		case 5:
			attacker := s.Topo.Order[(i*11)%len(s.Topo.Order)]
			if attacker == s.Topo.PrefixOrigin[p] {
				attacker = s.Topo.Order[(i*11+1)%len(s.Topo.Order)]
			}
			events = []simulate.Event{simulate.WithdrawPrefix(p), simulate.AnnouncePrefix(p, attacker)}
		case 6:
			events = []simulate.Event{simulate.WithdrawPrefix(p)}
		case 7:
			events = []simulate.Event{simulate.FailLink(e.A, e.B), simulate.RestoreLink(e.A, e.B, s.Topo.Graph.Rel(e.A, e.B))}
		default:
			events = []simulate.Event{simulate.FailLink(e.A, e.B)}
		}
		scs = append(scs, simulate.Scenario{Name: fmt.Sprintf("outlive-%d", i), Events: events})
	}

	reused := obs.NewCounterVec("policyscope_engine_scratch_total", "", "event").With("reused")
	reused0 := reused.Value()
	reps := make([]*WhatIfReport, len(scs))
	for i, sc := range scs {
		if reps[i], err = se.WhatIf(context.Background(), sc); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
	}
	if got := reused.Value() - reused0; got != uint64(len(scs)-1) {
		t.Fatalf("%d of %d what-ifs ran on a reused scratch engine, want all but the first", got, len(scs))
	}
	vantage, empty := 0, 0
	for i, sc := range scs {
		got, err := json.Marshal(reps[i])
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.whatIfOn(base.Clone(), sc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: kept report differs from a fresh clone's\n got %.300s\nwant %.300s", sc.Name, got, want)
		}
		for _, sh := range reps[i].Delta.Shifts {
			vantage += len(sh.Vantage)
		}
		if reps[i].Delta.Shifts == nil {
			empty++
		}
	}
	if vantage == 0 || empty == 0 {
		t.Errorf("the mix drew %d vantage shifts and %d reports without shifts; want both", vantage, empty)
	}
}

// TestWhatIfUnsharesGraphOncePerScratchEngine is the count guard on the
// lease: a run of link-failure what-ifs on one session copies the graph
// once per scratch engine it had to clone, not once per request — one
// at a time, they clone once, and every request after the first copies
// nothing.
func TestWhatIfUnsharesGraphOncePerScratchEngine(t *testing.T) {
	se := smallSession(t)
	s, err := se.Study()
	if err != nil {
		t.Fatal(err)
	}
	topology := obs.NewCounterVec("policyscope_engine_cow_copies_total", "", "kind").With("topology")
	scratch := obs.NewCounterVec("policyscope_engine_scratch_total", "", "event")
	cloned, reused, discarded := scratch.With("cloned"), scratch.With("reused"), scratch.With("discarded")

	edges := s.Topo.Graph.Edges()
	const requests = 64
	topology0, cloned0, reused0, discarded0 := topology.Value(), cloned.Value(), reused.Value(), discarded.Value()
	free := 0 // requests that copied no topology component
	for i := 0; i < requests; i++ {
		e := edges[(i*7)%len(edges)]
		before := topology.Value()
		if _, err := se.WhatIf(context.Background(), simulate.Scenario{Events: []simulate.Event{simulate.FailLink(e.A, e.B)}}); err != nil {
			t.Fatal(err)
		}
		if topology.Value() == before {
			free++
		}
	}
	copies, clones := topology.Value()-topology0, cloned.Value()-cloned0
	if copies != clones {
		t.Errorf("%d graph copies for %d scratch engines cloned", copies, clones)
	}
	if got := reused.Value() - reused0; got+clones != requests || discarded.Value() != discarded0 {
		t.Errorf("%d reused + %d cloned over %d requests, %d discarded", got, clones, requests, discarded.Value()-discarded0)
	}
	// One clone serves every request: only the first copies the graph.
	if clones != 1 || free != requests-1 {
		t.Errorf("%d of %d link-failure what-ifs copied no topology; %d scratch engines cloned", free, requests, clones)
	}
}
