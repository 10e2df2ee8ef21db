package bgp

import (
	"testing"

	"github.com/policyscope/policyscope/internal/netx"
)

// Allocation regression tests: the propagation loop's per-hop costs
// must stay allocation-free so the BenchmarkConvergeAllocs win cannot
// silently regress.

func allocRoute(prefix netx.Prefix, nbr ASN, lp uint32) *Route {
	return &Route{Prefix: prefix, Path: Path{nbr, 7018}, LocalPref: lp}
}

// TestCompareAllocFree: the decision-process compare — the innermost
// operation of every reselect — performs zero allocations.
func TestCompareAllocFree(t *testing.T) {
	p := netx.MustParsePrefix("10.0.0.0/24")
	a := allocRoute(p, 701, 100)
	b := allocRoute(p, 1239, 90)
	if avg := testing.AllocsPerRun(1000, func() {
		if Compare(a, b, StepRouterID) == 0 {
			t.Fatal("routes should differ")
		}
	}); avg != 0 {
		t.Fatalf("Compare allocates %.1f per run", avg)
	}
}

// TestRIBUpsertSteadyStateAllocFree: replacing an existing candidate in
// the flat entry store — the dominant RIB write during re-convergence —
// allocates nothing once the entry exists.
func TestRIBUpsertSteadyStateAllocFree(t *testing.T) {
	p := netx.MustParsePrefix("10.0.0.0/24")
	rib := NewRIB(64512)
	r1 := allocRoute(p, 701, 100)
	r2 := allocRoute(p, 1239, 90)
	rib.Upsert(701, r1)
	rib.Upsert(1239, r2)
	if avg := testing.AllocsPerRun(1000, func() {
		rib.Upsert(701, r1)
		rib.Upsert(1239, r2)
	}); avg != 0 {
		t.Fatalf("steady-state Upsert allocates %.1f per run", avg)
	}
}

// TestRIBLookupsAllocFree: the read side (Best, CandidateFrom, cached
// Prefixes) allocates nothing.
func TestRIBLookupsAllocFree(t *testing.T) {
	rib := NewRIB(64512)
	prefixes := []netx.Prefix{
		netx.MustParsePrefix("10.0.0.0/24"),
		netx.MustParsePrefix("10.0.1.0/24"),
		netx.MustParsePrefix("10.0.2.0/24"),
	}
	for _, p := range prefixes {
		rib.Upsert(701, allocRoute(p, 701, 100))
		rib.Upsert(1239, allocRoute(p, 1239, 90))
	}
	rib.Prefixes() // warm the cache
	if avg := testing.AllocsPerRun(1000, func() {
		for _, p := range rib.Prefixes() {
			if rib.Best(p) == nil || rib.CandidateFrom(p, 701) == nil {
				t.Fatal("missing route")
			}
		}
	}); avg != 0 {
		t.Fatalf("warm reads allocate %.1f per run", avg)
	}
}

// TestPrefixesCacheInvalidation: every prefix-set mutation invalidates
// the cached slice; candidate-level mutations keep it.
func TestPrefixesCacheInvalidation(t *testing.T) {
	p1 := netx.MustParsePrefix("10.0.0.0/24")
	p2 := netx.MustParsePrefix("10.0.1.0/24")
	rib := NewRIB(64512)
	rib.Upsert(701, allocRoute(p1, 701, 100))
	if got := rib.Prefixes(); len(got) != 1 || got[0] != p1 {
		t.Fatalf("Prefixes = %v", got)
	}
	// New prefix → visible.
	rib.Upsert(701, allocRoute(p2, 701, 100))
	if got := rib.Prefixes(); len(got) != 2 || got[1] != p2 {
		t.Fatalf("Prefixes after insert = %v", got)
	}
	// Candidate replacement keeps the cache (and its contents).
	before := rib.Prefixes()
	rib.Upsert(701, allocRoute(p2, 701, 120))
	after := rib.Prefixes()
	if len(after) != len(before) {
		t.Fatalf("candidate replacement changed prefix set: %v", after)
	}
	// Withdrawing the last candidate removes the prefix.
	rib.Withdraw(701, p1)
	if got := rib.Prefixes(); len(got) != 1 || got[0] != p2 {
		t.Fatalf("Prefixes after withdraw = %v", got)
	}
	// DropPrefix empties the table.
	rib.DropPrefix(p2)
	if got := rib.Prefixes(); len(got) != 0 {
		t.Fatalf("Prefixes after drop = %v", got)
	}
	// InstallOwned introduces prefixes too.
	r := allocRoute(p1, 701, 100)
	rib.InstallOwned(p1, nil, []ASN{701}, []*Route{r}, r)
	if got := rib.Prefixes(); len(got) != 1 || got[0] != p1 {
		t.Fatalf("Prefixes after install = %v", got)
	}
}

// TestPrefixesCacheCOWSafety: COW clones share the cached slice until
// they mutate their own prefix set; a clone's rebuild never leaks into
// the source or into sibling clones.
func TestPrefixesCacheCOWSafety(t *testing.T) {
	p1 := netx.MustParsePrefix("10.0.0.0/24")
	p2 := netx.MustParsePrefix("10.0.1.0/24")
	p3 := netx.MustParsePrefix("10.0.2.0/24")
	src := NewRIB(64512)
	src.Upsert(701, allocRoute(p1, 701, 100))
	src.Upsert(701, allocRoute(p2, 701, 100))
	srcView := src.Prefixes() // warmed, shared into clones

	a := src.CloneCOW()
	b := src.CloneCOW()
	if got := a.Prefixes(); len(got) != 2 {
		t.Fatalf("clone a Prefixes = %v", got)
	}
	// a grows a prefix: only a sees it.
	a.Upsert(701, allocRoute(p3, 701, 100))
	if got := a.Prefixes(); len(got) != 3 {
		t.Fatalf("clone a after insert = %v", got)
	}
	if got := b.Prefixes(); len(got) != 2 {
		t.Fatalf("sibling clone polluted: %v", got)
	}
	if len(srcView) != 2 || srcView[0] != p1 || srcView[1] != p2 {
		t.Fatalf("source's cached slice mutated: %v", srcView)
	}
	// b drops a prefix: a and the source are unaffected.
	b.DropPrefix(p1)
	if got := b.Prefixes(); len(got) != 1 || got[0] != p2 {
		t.Fatalf("clone b after drop = %v", got)
	}
	if got := a.Prefixes(); len(got) != 3 {
		t.Fatalf("clone a polluted by sibling: %v", got)
	}
}
