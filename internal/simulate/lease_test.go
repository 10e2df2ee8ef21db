package simulate

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
)

// leaseChecker runs scenarios through base.Scratch and holds every lease
// to a fresh clone: the Delta and the post-event engine are the ones
// base.Clone() + Apply produce, an engine that went back to the idle list
// cannot be told from a clone that never applied anything
// (requireRolledBack), and one that did not is never seen again.
type leaseChecker struct {
	t         *testing.T
	base      *Engine
	untouched *Engine // a clone of base nothing is applied to
	baseline  *Result
	dropped   map[*Engine]string // engine -> the scenario that cost it its place
	restored  int
}

func newLeaseChecker(t *testing.T, base *Engine) *leaseChecker {
	return &leaseChecker{t: t, base: base, untouched: base.Clone(), baseline: resultSnapshot(base), dropped: make(map[*Engine]string)}
}

// run leases one scenario. spoil, when set, runs as the tail of observe
// on the leased engine and its error is observe's.
func (lc *leaseChecker) run(sc Scenario, spoil func(*Engine) error) (restored bool, err error) {
	t := lc.t
	t.Helper()
	var held *Engine
	// Deferred: a panicking observer unwinds through here.
	defer func() {
		if held != nil && !restored {
			lc.dropped[held] = sc.Name
		}
	}()
	restored, err = lc.base.Scratch(lc.base.Parallelism(), sc, func(d *Delta, s *Engine) error {
		held = s
		if by, gone := lc.dropped[s]; gone {
			t.Errorf("%s: leased the engine %s should have cost its place", sc.Name, by)
		}
		fresh := lc.base.Clone()
		want, err := fresh.Apply(sc)
		if err != nil {
			t.Fatalf("%s: fresh clone refuses what the lease applied: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(d, want) {
			t.Errorf("%s: leased Delta differs from a fresh clone's: recomputed %d vs %d, %d vs %d shifts, %d vs %d reach deltas, peers %v vs %v",
				sc.Name, d.Recomputed, want.Recomputed, len(d.Shifts), len(want.Shifts),
				len(d.ReachDeltas), len(want.ReachDeltas), d.PeerBestChanged, want.PeerBestChanged)
		}
		if diffs := forestDiff(s, fresh); len(diffs) > 0 {
			t.Errorf("%s: leased forest differs from a fresh clone's: %v", sc.Name, diffs[:min(3, len(diffs))])
		}
		if diffs := DiffResults(s.Result(), fresh.Result()); len(diffs) > 0 {
			t.Errorf("%s: leased tables differ from a fresh clone's: %v", sc.Name, diffs[:min(3, len(diffs))])
		}
		if err := fresh.checkInvariants(); err != nil {
			t.Errorf("%s: after Apply: %v", sc.Name, err)
		}
		if spoil != nil {
			return spoil(s)
		}
		return nil
	})
	if restored && held != nil {
		lc.restored++
		requireRolledBack(t, sc.Name+": released engine", held, lc.untouched, lc.baseline)
		// The adjacency was put back, not rebuilt: the base's layout under
		// the base's version, so worker states synced to it stay valid.
		if got, want := held.e.adjVersion, lc.untouched.e.adjVersion; got != want {
			t.Errorf("%s: released engine at adjacency version %d, the base at %d", sc.Name, got, want)
		}
	}
	return restored, err
}

// TestScratchLeaseEqualsFreshClone: random batches over all seven event
// kinds through one base's lease. Every batch keeps its engine, whatever
// its events, and so does an observer that applies a second batch on top;
// only an observer that fails or panics costs it. A scenario that fails
// validation does not.
func TestScratchLeaseEqualsFreshClone(t *testing.T) {
	seen := make(map[EventKind]int)
	for _, seed := range []int64{1, 2, 3} {
		topo, opts := buildTestTopo(t, 120, seed)
		base, err := NewEngine(topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		pristine, err := NewEngine(topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		lc := newLeaseChecker(t, base)
		reused0, cloned0, discarded0 := mScratchReused.Value(), mScratchCloned.Value(), mScratchDiscarded.Value()
		leases, drops := 0, 0
		lease := func(sc Scenario, spoil func(*Engine) error, want bool) error {
			t.Helper()
			leases++
			if !want {
				drops++
			}
			restored, err := lc.run(sc, spoil)
			if restored != want {
				t.Errorf("%s %+v: restored = %v, want %v", sc.Name, sc.Events, restored, want)
			}
			return err
		}

		rng := rand.New(rand.NewSource(seed))
		fresh := 0
		edges := topo.Graph.Edges()
		for trial := 0; trial < 48; trial++ {
			name := fmt.Sprintf("seed%d/trial%d", seed, trial)
			events := randomBatch(t, rng, topo.Clone(), &fresh)
			for _, ev := range events {
				seen[ev.Kind]++
			}
			if err := lease(Scenario{Name: name, Events: events}, nil, true); err != nil {
				t.Fatalf("%s %+v: %v", name, events, err)
			}
			// A single link failure after every draw, so that whatever the
			// batch left behind is what the next reuse starts from.
			e := edges[rng.Intn(len(edges))]
			if err := lease(Scenario{Name: name + "/link", Events: []Event{FailLink(e.A, e.B)}}, nil, true); err != nil {
				t.Fatal(err)
			}
		}
		for _, sc := range linkCancelShapes(t, topo) {
			if err := lease(sc, nil, true); err != nil {
				t.Fatal(err)
			}
		}

		// What the observer applies on top is rolled back with the scenario;
		// an observer that fails or panics forfeits the engine.
		one := Scenario{Name: "spoiled", Events: []Event{FailLink(edges[0].A, edges[0].B)}}
		var somePrefix netx.Prefix
		for p := range topo.PrefixOrigin {
			somePrefix = p
			break
		}
		if err := lease(one, func(s *Engine) error {
			_, err := s.Apply(Scenario{Events: []Event{FailLink(edges[1].A, edges[1].B), WithdrawPrefix(somePrefix)}})
			return err
		}, true); err != nil {
			t.Errorf("second Apply under the lease: %v", err)
		}
		boom := errors.New("observer gave up")
		if err := lease(one, func(*Engine) error { return boom }, false); !errors.Is(err, boom) {
			t.Errorf("observer's error came back as %v", err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("observer's panic did not reach the caller")
				}
			}()
			_ = lease(one, func(*Engine) error { panic("observer") }, false)
		}()
		// Validation fails before anything is written: the engine is kept
		// and the next lease is held to the same standard as every other.
		if err := lease(Scenario{Name: "invalid", Events: []Event{FailLink(edges[0].A, edges[0].A)}}, nil, true); err == nil {
			t.Error("self link accepted")
		}
		if err := lease(one, nil, true); err != nil {
			t.Fatal(err)
		}

		reused, cloned := mScratchReused.Value()-reused0, mScratchCloned.Value()-cloned0
		if got := mScratchDiscarded.Value() - discarded0; got != uint64(drops) {
			t.Errorf("seed %d: %d engines discarded, want %d", seed, got, drops)
		}
		if reused+cloned != uint64(leases) {
			t.Errorf("seed %d: %d reused + %d cloned over %d leases", seed, reused, cloned, leases)
		}
		// The leases run one at a time: the first clones, every drop costs
		// the next lease a clone, and every other lease reuses.
		if cloned != uint64(1+drops) {
			t.Errorf("seed %d: %d reused, %d cloned over %d leases with %d drops", seed, reused, cloned, leases, drops)
		}
		if lc.restored == 0 {
			t.Errorf("seed %d: no lease was checked after its release", seed)
		}
		if diffs := forestDiff(base, pristine); len(diffs) > 0 {
			t.Fatalf("seed %d: base forest changed under its leases: %v", seed, diffs[:min(3, len(diffs))])
		}
		if diffs := DiffResults(base.Result(), pristine.Result()); len(diffs) > 0 {
			t.Fatalf("seed %d: base engine changed under its leases: %v", seed, diffs[:min(3, len(diffs))])
		}
	}
	for _, k := range allEventKinds {
		if seen[k] == 0 {
			t.Errorf("no batch drew a %s event", k)
		}
	}
}

// TestConcurrentSiblingLeases: link failures, local-pref flips of one
// AS, and withdrawals and no-upstream flips of one origin's prefixes,
// leased from one base by ScratchLimit() goroutines at once, each lease
// at parallelism 2. The sibling scratch engines share one worker-state
// pool, so a state that synced to one engine's CSR offsets — carved from
// that engine's region and rewound by its rollback — is taken by another
// while the first carves the same storage again. And they share the
// base's Policies and AS descriptions until each one's first edit, so
// under -race an edit made in place on a shared one is a race with its
// siblings' reads. Every Delta must equal the one a fresh clone's Apply
// made sequentially, and every engine must come back.
func TestConcurrentSiblingLeases(t *testing.T) {
	topo, opts := buildTestTopo(t, 120, 2)
	base, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	edges := topo.Graph.Edges()
	var events []Event
	for i := 0; i < len(edges); i += max(1, len(edges)/40) {
		events = append(events, FailLink(edges[i].A, edges[i].B))
	}
	as := byDegree(topo)[0]
	for _, nb := range topo.Graph.Neighbors(as)[:8] {
		events = append(events, SetLocalPref(as, nb, 50), SetLocalPref(as, nb, 200))
	}
	origin := multiPrefixOrigin(t, topo)
	for _, p := range topo.ASes[origin].Prefixes {
		events = append(events, WithdrawPrefix(p))
		for _, prov := range topo.Graph.Providers(origin) {
			events = append(events, TagNoUpstream(p, prov))
		}
	}
	var scs []Scenario
	var want []*Delta
	for _, ev := range events {
		sc := Scenario{Name: fmt.Sprintf("%s %+v", ev.Kind, ev), Events: []Event{ev}}
		d, err := base.Clone().Apply(sc)
		if err != nil {
			t.Fatal(err)
		}
		scs, want = append(scs, sc), append(want, d)
	}
	holders := ScratchLimit()
	var wg sync.WaitGroup
	for h := 0; h < holders; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for i := h; i < len(scs); i += holders {
					restored, err := base.Scratch(2, scs[i], func(d *Delta, _ *Engine) error {
						if !reflect.DeepEqual(d, want[i]) {
							return fmt.Errorf("Delta differs from a fresh clone's: recomputed %d vs %d, %d vs %d shifts",
								d.Recomputed, want[i].Recomputed, len(d.Shifts), len(want[i].Shifts))
						}
						return nil
					})
					if err != nil || !restored {
						t.Errorf("holder %d, %s: restored=%v err=%v", h, scs[i].Name, restored, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// multiPrefixOrigin returns the AS with a provider that originates the
// most prefixes.
func multiPrefixOrigin(t *testing.T, topo *topogen.Topology) bgp.ASN {
	var origin bgp.ASN
	most := 1
	for _, asn := range topo.Order {
		if n := len(topo.ASes[asn].Prefixes); n > most && len(topo.Graph.Providers(asn)) > 0 {
			origin, most = asn, n
		}
	}
	if origin == 0 {
		t.Fatal("no AS with a provider originates two prefixes")
	}
	return origin
}

// TestLeaseReusesDeltaBuffers: a scratch engine builds every scenario's
// Delta in the arrays the ones before it grew. After a warm-up lease, the
// same link failure on the same engine lands its shifts, reach deltas and
// disturb set in the arrays the warm-up used — also when a scenario with
// empty lists ran in between — and an empty list is nil, on the lease as
// on a fresh clone's Apply.
func TestLeaseReusesDeltaBuffers(t *testing.T) {
	topo, opts := buildTestTopo(t, 120, 5)
	base, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	var full Scenario
	for _, e := range topo.Graph.Edges() {
		sc := Scenario{Name: "full", Events: []Event{FailLink(e.A, e.B)}}
		d, err := base.Clone().Apply(sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Shifts) > 0 && len(d.ReachDeltas) > 0 {
			full = sc
			break
		}
	}
	if full.Events == nil {
		t.Fatal("no link failure moves both catchment and reach")
	}
	e := topo.Graph.Edges()[0]
	empty := Scenario{Name: "empty", Events: []Event{FailLink(e.A, e.B), RestoreLink(e.A, e.B, topo.Graph.Rel(e.A, e.B))}}
	want, err := base.Clone().Apply(empty)
	if err != nil {
		t.Fatal(err)
	}
	if want.Shifts != nil || want.ReachDeltas != nil {
		t.Fatalf("fresh clone: empty lists are %#v and %#v, want nil", want.Shifts, want.ReachDeltas)
	}

	// arrays is where one lease's Delta and disturb set live.
	type arrays struct {
		engine    *Engine
		shifts    *PrefixShift
		reach     *ReachDelta
		disturbed *netx.Prefix
	}
	lease := func(sc Scenario) (got arrays) {
		t.Helper()
		if _, err := base.Scratch(1, sc, func(d *Delta, s *Engine) error {
			got = arrays{s, unsafe.SliceData(d.Shifts), unsafe.SliceData(d.ReachDeltas), unsafe.SliceData(s.leased.disturbed)}
			if sc.Name == "empty" && (d.Shifts != nil || d.ReachDeltas != nil) {
				t.Errorf("lease: empty lists are %#v and %#v, want nil", d.Shifts, d.ReachDeltas)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	warm, between, again, last := lease(full), lease(empty), lease(full), lease(full)
	if between.engine != warm.engine || again.engine != warm.engine || last.engine != warm.engine {
		t.Fatal("four leases in a row did not share one engine")
	}
	if again.shifts != warm.shifts || again.reach != warm.reach {
		t.Errorf("the same link failure on the same engine moved its Delta: %+v, then %+v", warm, again)
	}
	// The fail+restore names every prefix, which may grow the disturb
	// set's array past the warm-up's; from then on it stays.
	if last != again || again.disturbed == nil {
		t.Errorf("the same link failure on the same engine moved its disturb set: %+v, then %+v", again, last)
	}
}

// TestIdleListLastInFirstOut: the idle list is a stack. Leases one after
// another get the one warm engine back every time, and when two holders
// give theirs back, A and then B, the next lease gets B — the engine given
// back last.
func TestIdleListLastInFirstOut(t *testing.T) {
	topo, opts := buildTestTopo(t, 120, 3)
	base, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	edges := topo.Graph.Edges()
	probe := Scenario{Name: "probe", Events: []Event{FailLink(edges[0].A, edges[0].B)}}
	lease := func() (leased *Engine) {
		t.Helper()
		if restored, err := base.Scratch(1, probe, func(_ *Delta, s *Engine) error {
			leased = s
			return nil
		}); err != nil || !restored {
			t.Fatalf("lease: restored=%v err=%v", restored, err)
		}
		return leased
	}
	first := lease()
	if again := lease(); again != first {
		t.Fatal("two leases in a row got two engines")
	}

	// Two holders at once; each gives its engine back when told to.
	var inside sync.WaitGroup
	inside.Add(2)
	release := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	returned := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var held [2]*Engine
	for h := range 2 {
		go func() {
			defer close(returned[h])
			if restored, err := base.Scratch(1, probe, func(_ *Delta, s *Engine) error {
				held[h] = s
				inside.Done()
				<-release[h]
				return nil
			}); err != nil || !restored {
				t.Errorf("holder %d: restored=%v err=%v", h, restored, err)
			}
		}()
	}
	inside.Wait()
	if held[0] == held[1] {
		t.Fatal("two holders at once share an engine")
	}
	for h := range 2 {
		close(release[h])
		<-returned[h]
	}
	if got := lease(); got != held[1] {
		t.Errorf("after A (%p) then B (%p) came back, the next lease got %p, want B", held[0], held[1], got)
	}
}

// The BenchmarkScratch* workloads. Each shape builds a base engine and
// returns the op one iteration runs on it; TestAllocBudget holds what a
// warm op allocates to testdata/alloc_budget.json.

// scratchShape is one workload's set-up: the op it returns runs the i-th
// iteration, and the ops cycle through cycle scenarios.
type scratchShape func(testing.TB) (op func(i int) error, cycle int)

// scratchShapes are the shapes under the allocation budget, by the
// budget file's row names.
var scratchShapes = []struct {
	name  string
	shape scratchShape
}{
	{"ScratchLinkFailure", scratchLinkFailure},
	{"ScratchGroupLinkFailure", scratchGroupLinkFailure},
	{"ScratchLocalPrefFlip", scratchLocalPrefFlip},
	{"ScratchLargePolicyFlip", scratchLargePolicyFlip},
	{"ScratchHijack", scratchHijack},
	{"ScratchWithdrawal", scratchWithdrawal},
	{"ScratchNoUpstreamFlip", scratchNoUpstreamFlip},
}

func runScratch(b *testing.B, shape scratchShape) {
	op, _ := shape(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(i); err != nil {
			b.Fatal(err)
		}
	}
}

// leaseEach returns the op that leases scs[i%len(scs)] on base with an
// observer that does nothing.
func leaseEach(base *Engine, scs []Scenario) (func(int) error, int) {
	observe := func(*Delta, *Engine) error { return nil }
	return func(i int) error {
		_, err := base.Scratch(1, scs[i%len(scs)], observe)
		return err
	}, len(scs)
}

func newBase(tb testing.TB, topo *topogen.Topology, opts Options) *Engine {
	base, err := NewEngine(topo, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return base
}

// BenchmarkScratchLinkFailure: one single-link failure per op on leased
// scratch engines of a 120-AS base — the sweep_links inner loop. In the
// steady state an op allocates what it writes into the engine.
func BenchmarkScratchLinkFailure(b *testing.B) { runScratch(b, scratchLinkFailure) }

func scratchLinkFailure(tb testing.TB) (func(int) error, int) {
	topo, opts := buildTestTopo(tb, 120, 1)
	var scs []Scenario
	for _, e := range topo.Graph.Edges() {
		scs = append(scs, Scenario{Events: []Event{FailLink(e.A, e.B)}})
	}
	return leaseEach(newBase(tb, topo, opts), scs)
}

// BenchmarkScratchGroupLinkFailure: one op fails every provider session
// of one multihomed AS in a single scenario on leased scratch engines of
// a 120-AS base — a group-size batch in miniature — and its observer
// brings the first session back on top, so the second relink's
// pre-images are the rows the first one carved. The observer builds its
// Delta in a buffer the benchmark keeps, as the lease builds the
// scenario's, so an op counts what the engine allocates. The ops rotate
// over every AS with two providers or more.
func BenchmarkScratchGroupLinkFailure(b *testing.B) { runScratch(b, scratchGroupLinkFailure) }

func scratchGroupLinkFailure(tb testing.TB) (func(int) error, int) {
	topo, opts := buildTestTopo(tb, 120, 1)
	base := newBase(tb, topo, opts)
	type group struct {
		fail    Scenario
		restore Scenario
	}
	var groups []group
	for _, asn := range topo.Order {
		providers := topo.Graph.Providers(asn)
		if len(providers) < 2 {
			continue
		}
		var g group
		for _, p := range providers {
			g.fail.Events = append(g.fail.Events, FailLink(asn, p))
		}
		g.restore.Events = []Event{RestoreLink(asn, providers[0], asgraph.RelProvider)}
		groups = append(groups, g)
	}
	if len(groups) == 0 {
		tb.Fatal("no multihomed AS")
	}
	after := new(deltaBuf)
	return func(i int) error {
		g := groups[i%len(groups)]
		_, err := base.Scratch(1, g.fail, func(_ *Delta, s *Engine) error {
			return s.apply(g.restore, after)
		})
		return err
	}, len(groups)
}

// BenchmarkScratchLocalPrefFlip: one neighbor-wide local_pref flip per op
// on leased scratch engines of a 120-AS base — the sweep_policy family the
// export gate prunes most.
func BenchmarkScratchLocalPrefFlip(b *testing.B) { runScratch(b, scratchLocalPrefFlip) }

func scratchLocalPrefFlip(tb testing.TB) (func(int) error, int) {
	topo, opts := buildTestTopo(tb, 120, 1)
	return leaseEach(newBase(tb, topo, opts), localPrefFlips(topo))
}

// localPrefFlips are a local_pref of 50 and of 200 on every session of
// the highest-degree AS.
func localPrefFlips(topo *topogen.Topology) []Scenario {
	as := byDegree(topo)[0]
	var scs []Scenario
	for _, nb := range topo.Graph.Neighbors(as) {
		for _, value := range []uint32{50, 200} {
			scs = append(scs, Scenario{Events: []Event{SetLocalPref(as, nb, value)}})
		}
	}
	return scs
}

// BenchmarkScratchLargePolicyFlip: BenchmarkScratchLocalPrefFlip's
// flips on a 200-AS base whose every AS is a vantage point, so each
// rewrites thousands of vantage entries and forest rows (the largest
// more than 20,000 entries) — the size of the largest sweep_policy
// scenarios. A warm op carves all of it from storage the rollback before
// rewound.
func BenchmarkScratchLargePolicyFlip(b *testing.B) { runScratch(b, scratchLargePolicyFlip) }

func scratchLargePolicyFlip(tb testing.TB) (func(int) error, int) {
	topo, _ := equivalenceTopo(tb, 200, 11)
	base := newBase(tb, topo, Options{VantagePoints: topo.Order, Parallelism: 1})
	return leaseEach(base, localPrefFlips(topo))
}

// BenchmarkScratchHijack: one origin-takeover hijack per op on leased
// scratch engines of a 120-AS base — the sweep_policy family with the
// most vantage rewrites: the hijacked prefix re-converges from scratch,
// so every vantage table that reaches it writes its entry anew. Eight
// prefixes spread over the index, each taken over by the four
// highest-degree ASes.
func BenchmarkScratchHijack(b *testing.B) { runScratch(b, scratchHijack) }

func scratchHijack(tb testing.TB) (func(int) error, int) {
	topo, opts := buildTestTopo(tb, 120, 1)
	base := newBase(tb, topo, opts)
	var scs []Scenario
	for _, p := range samplePrefixes(base, 8) {
		for _, a := range byDegree(topo)[:4] {
			if a != topo.PrefixOrigin[p] {
				scs = append(scs, Scenario{Events: []Event{WithdrawPrefix(p), AnnouncePrefix(p, a)}})
			}
		}
	}
	return leaseEach(base, scs)
}

// BenchmarkScratchWithdrawal: one prefix withdrawal per op on leased
// scratch engines of a 120-AS base — the sweep_policy family that edits
// the origin's description and, where it has entries for the prefix,
// its Policy. 32 prefixes spread over the index.
func BenchmarkScratchWithdrawal(b *testing.B) { runScratch(b, scratchWithdrawal) }

func scratchWithdrawal(tb testing.TB) (func(int) error, int) {
	topo, opts := buildTestTopo(tb, 120, 1)
	base := newBase(tb, topo, opts)
	var scs []Scenario
	for _, p := range samplePrefixes(base, 32) {
		scs = append(scs, Scenario{Events: []Event{WithdrawPrefix(p)}})
	}
	return leaseEach(base, scs)
}

// BenchmarkScratchNoUpstreamFlip: one no_upstream tag per op on leased
// scratch engines of a 120-AS base — the sweep_policy family that edits
// one Export entry of the origin's Policy and re-converges its prefix.
// 16 prefixes spread over the index, each tagged to every provider of
// its origin.
func BenchmarkScratchNoUpstreamFlip(b *testing.B) { runScratch(b, scratchNoUpstreamFlip) }

func scratchNoUpstreamFlip(tb testing.TB) (func(int) error, int) {
	topo, opts := buildTestTopo(tb, 120, 1)
	base := newBase(tb, topo, opts)
	var scs []Scenario
	for _, p := range samplePrefixes(base, 16) {
		for _, prov := range topo.Graph.Providers(topo.PrefixOrigin[p]) {
			scs = append(scs, Scenario{Events: []Event{TagNoUpstream(p, prov)}})
		}
	}
	if len(scs) == 0 {
		tb.Fatal("no sampled prefix has an origin with a provider")
	}
	return leaseEach(base, scs)
}

// TestScratchPoolDroppedWhenBaseMoves: idle scratch engines stand at the
// state the base had when it lent them out. A base that applies a
// scenario of its own (a compounding Study.WhatIfEngine handed to
// sweep.Run twice) or rolls one back must not lease them again. The list
// keeps at most ScratchLimit of them, however many were out at once.
func TestScratchPoolDroppedWhenBaseMoves(t *testing.T) {
	topo, opts := buildTestTopo(t, 120, 4)
	root, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := root.Clone()
	edges := topo.Graph.Edges()
	probe := Scenario{Name: "probe", Events: []Event{FailLink(edges[2].A, edges[2].B)}}
	step := func(name string) {
		t.Helper()
		// A fresh checker: its baseline is the base as it stands now.
		lc := newLeaseChecker(t, base)
		for i := 0; i < 3; i++ {
			if restored, err := lc.run(Scenario{Name: name, Events: probe.Events}, nil); err != nil || !restored {
				t.Fatalf("%s: restored=%v err=%v", name, restored, err)
			}
		}
	}
	step("at the root state")
	base.Checkpoint()
	if _, err := base.Apply(Scenario{Events: []Event{FailLink(edges[0].A, edges[0].B)}}); err != nil {
		t.Fatal(err)
	}
	step("after the base applied")
	if !base.Rollback() {
		t.Fatal("rollback refused")
	}
	step("after the base rolled back")

	// More holders at once than the list may keep: all but the one idle
	// engine clone, and the list keeps ScratchLimit of them when they are
	// given back.
	holders := ScratchLimit() + 2
	cloned0 := mScratchCloned.Value()
	var inside, release, done sync.WaitGroup
	inside.Add(holders)
	release.Add(1)
	for i := 0; i < holders; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			if restored, err := base.Scratch(1, probe, func(*Delta, *Engine) error {
				inside.Done()
				release.Wait()
				return nil
			}); err != nil || !restored {
				t.Errorf("concurrent holder: restored=%v err=%v", restored, err)
			}
		}()
	}
	inside.Wait()
	release.Done()
	done.Wait()
	if got := mScratchCloned.Value() - cloned0; got != uint64(holders-1) {
		t.Errorf("%d holders at once with one engine idle cloned %d, want %d", holders, got, holders-1)
	}
	if got := len(base.scratch.Load().engines); got != ScratchLimit() {
		t.Errorf("idle list holds %d engines after %d came back, want %d", got, holders, ScratchLimit())
	}
	if _, err := base.Apply(Scenario{Events: []Event{FailLink(edges[0].A, edges[0].B)}}); err != nil {
		t.Fatal(err)
	}
	if l := base.scratch.Load(); l != nil {
		t.Errorf("base applied with %d engines still idle", len(l.engines))
	}
}
