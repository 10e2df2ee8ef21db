package dataset

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/studyfmt"
	"github.com/policyscope/policyscope/internal/sweep"
	"github.com/policyscope/policyscope/obs"
)

// metric reads one sample of the process-wide registry by name and label
// substring (0 when it has not been touched yet).
func metric(t *testing.T, name, labelSub string) float64 {
	t.Helper()
	var buf bytes.Buffer
	obs.Default.WriteText(&buf)
	samples, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := obs.Find(samples, name, labelSub)
	return v
}

// cacheCounts is the cache counter's three children plus the number of
// load timings recorded beside them.
type cacheCounts struct{ hit, miss, stale, timed float64 }

func readCacheCounts(t *testing.T) cacheCounts {
	t.Helper()
	c := cacheCounts{
		hit:   metric(t, "policyscope_dataset_cache_total", `result="hit"`),
		miss:  metric(t, "policyscope_dataset_cache_total", `result="miss"`),
		stale: metric(t, "policyscope_dataset_cache_total", `result="stale"`),
	}
	for _, r := range []string{"hit", "miss", "stale"} {
		c.timed += metric(t, "policyscope_dataset_load_seconds_count", `result="`+r+`"`)
	}
	return c
}

// since is the movement of the counters from before to now; every load
// counted is also timed.
func (before cacheCounts) since(t *testing.T) cacheCounts {
	t.Helper()
	now := readCacheCounts(t)
	d := cacheCounts{now.hit - before.hit, now.miss - before.miss, now.stale - before.stale, now.timed - before.timed}
	if d.timed != d.hit+d.miss+d.stale {
		t.Errorf("%v loads counted, %v timed", d.hit+d.miss+d.stale, d.timed)
	}
	return d
}

// engineScenarios is a what-if mix over all seven event kinds, drawn
// from the sweep generators plus the two kinds no generator emits
// (link_restore, sa_toggle).
func engineScenarios(t *testing.T, s *policyscope.Study) []simulate.Scenario {
	t.Helper()
	_, stub, provider, ok := s.FailoverScenario()
	if !ok {
		t.Fatal("no multihomed stub")
	}
	prefix := s.Topo.ASes[stub].Prefixes[0]
	var hub = s.Topo.Order[0]
	for _, asn := range s.Topo.Order {
		if s.Topo.Graph.Degree(asn) > s.Topo.Graph.Degree(hub) {
			hub = asn
		}
	}
	spec := sweep.Spec{Generators: []sweep.Generator{
		{Kind: sweep.KindAllSingleLinkFailures, Max: 12},
		{Kind: sweep.KindPrefixWithdrawals, Max: 8},
		{Kind: sweep.KindHijacks, Attackers: s.Peers[:2], Max: 8},
		{Kind: sweep.KindLocalPrefFlips, AS: hub, Values: []uint32{50, 200}, Max: 10},
		{Kind: sweep.KindNoUpstreamFlips, Max: 8},
		{Kind: sweep.KindScenarios, Scenarios: []simulate.Scenario{
			{Name: "fail+restore", Events: []simulate.Event{
				simulate.FailLink(stub, provider),
				simulate.RestoreLink(stub, provider, asgraph.RelProvider),
			}},
			{Name: "new-peering", Events: []simulate.Event{
				simulate.FailLink(stub, provider),
				simulate.RestoreLink(s.Peers[0], stub, asgraph.RelCustomer),
			}},
			{Name: "sa-off", Events: []simulate.Event{simulate.ToggleProviderAnnouncement(prefix, provider, false)}},
			{Name: "sa-on", Events: []simulate.Event{simulate.ToggleProviderAnnouncement(prefix, provider, true)}},
		}},
	}}
	scs, err := sweep.Expand(context.Background(), s.Topo, spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[simulate.EventKind]bool{}
	for _, sc := range scs {
		for _, ev := range sc.Events {
			seen[ev.Kind] = true
		}
	}
	if len(scs) < 50 || len(seen) != 7 {
		t.Fatalf("%d scenarios over %d event kinds, want >= 50 over 7", len(scs), len(seen))
	}
	return scs
}

// TestCacheHitIsColdBuildAsEngines: a study loaded from a cache entry
// and the cold build that wrote the entry are the same what-if base —
// equal tables, equal forest rows, and byte-equal Deltas for fifty
// scenarios over all seven event kinds applied to a clone of each.
// (internal/simulate's TestRestoreEngineMatchesCold is the same claim
// under random mixed batches, without the codec in between.)
func TestCacheHitIsColdBuildAsEngines(t *testing.T) {
	small, _ := Builtin().Get("small")
	cfg := small.(*Synthetic).Config
	for _, seed := range []int64{42, 43, 44} {
		cfg.Seed = seed
		dir := t.TempDir()
		before := readCacheCounts(t)
		cold, err := NewCached(NewSynthetic(cfg), dir).Load(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		hit, err := NewCached(NewSynthetic(cfg), dir).Load(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if d := before.since(t); d.miss != 1 || d.hit != 1 || d.stale != 0 {
			t.Fatalf("seed %d: cache counters moved by %+v, want one miss then one hit", seed, d)
		}
		if diffs := simulate.DiffResults(cold.Result, hit.Result); len(diffs) > 0 {
			t.Fatalf("seed %d: hit tables differ from the cold build: %v", seed, diffs[0])
		}
		coldBase, err := cold.WhatIfEngine()
		if err != nil {
			t.Fatal(err)
		}
		hitBase, err := hit.WhatIfEngine()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(coldBase.ForestSlots(), hitBase.ForestSlots()) {
			t.Fatalf("seed %d: hit forest differs from the cold build", seed)
		}
		for _, sc := range engineScenarios(t, cold) {
			var out [2][]byte
			for k, base := range []*simulate.Engine{coldBase, hitBase} {
				delta, err := base.Clone().Apply(sc)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, sc.Name, err)
				}
				if out[k], err = json.Marshal(struct {
					Delta *simulate.Delta
					Peers any
				}{delta, delta.PeerBestChanged}); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(out[0], out[1]) {
				t.Fatalf("seed %d %s: Delta differs\n cold %s\n hit  %s", seed, sc.Name, out[0], out[1])
			}
		}
	}
}

// TestOneConvergencePerDataset is the count invariant: bringing a cold
// synthetic dataset to ready-to-serve (Pool.Session + Warm) runs exactly
// one convergence pass, and bringing a cached one there runs none.
func TestOneConvergencePerDataset(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig(71)
	ready := func(src Source) float64 {
		t.Helper()
		cat := NewCatalog()
		if err := cat.Register("d", src); err != nil {
			t.Fatal(err)
		}
		before := metric(t, "policyscope_converge_runs_total", "")
		sess, err := NewPool(cat, 1).Session(context.Background(), "d")
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Warm(); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.WhatIf(context.Background(), withdrawFirstPrefix(t, sess)); err != nil {
			t.Fatal(err)
		}
		return metric(t, "policyscope_converge_runs_total", "") - before
	}
	if n := ready(NewCached(NewSynthetic(cfg), dir)); n != 1 {
		t.Errorf("cold dataset: %v convergence passes to ready-to-serve, want 1", n)
	}
	if n := ready(NewCached(&failingSource{spec: NewSynthetic(cfg).Spec()}, dir)); n != 0 {
		t.Errorf("cached dataset: %v convergence passes to ready-to-serve, want 0", n)
	}
	if n := ready(NewSynthetic(cfg)); n != 1 {
		t.Errorf("uncached dataset: %v convergence passes to ready-to-serve, want 1", n)
	}
}

// TestOneConvergencePerFrontDoor is the same count through the door the
// one-shot binaries take (sweep local mode, simulate -scenario,
// lookingglass, repro): parsed Flags → Catalog → Load →
// Study.WhatIfEngine. A cold -cache-dir converges once; a warm one, or a
// second process over it, converges nothing.
func TestOneConvergencePerFrontDoor(t *testing.T) {
	dir := t.TempDir()
	engine := func(args ...string) float64 {
		t.Helper()
		f := Flags{ASes: 2000, Seed: 42, Peers: 56}
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f.Register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		cat, err := f.Catalog(policyscope.Config{})
		if err != nil {
			t.Fatal(err)
		}
		before := metric(t, "policyscope_converge_runs_total", "")
		src, _ := cat.Get(cat.Default())
		study, err := src.Load(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := study.WhatIfEngine()
		if err != nil {
			t.Fatal(err)
		}
		if eng.UnconvergedCount() != 0 || len(eng.Result().Tables) != len(study.Peers) {
			t.Fatalf("engine not converged over the study's %d peers", len(study.Peers))
		}
		return metric(t, "policyscope_converge_runs_total", "") - before
	}
	flagCfg := []string{"-ases", "90", "-seed", "71", "-peers", "6"}
	for _, tc := range []struct {
		name string
		args []string
		want float64
	}{
		{"no cache", flagCfg, 1},
		{"cold cache", append(flagCfg, "-cache-dir", dir), 1},
		{"warm cache", append(flagCfg, "-cache-dir", dir), 0},
		{"preset, cold cache", []string{"-dataset", "small", "-cache-dir", dir}, 1},
		{"preset, warm cache", []string{"-dataset", "small", "-cache-dir", dir}, 0},
	} {
		if n := engine(tc.args...); n != tc.want {
			t.Errorf("%s: %v convergence passes from flags to engine, want %v", tc.name, n, tc.want)
		}
	}
}

// TestStoreKeysPinned holds the literal store keys of the built-in
// presets and of two CAIDA specs, as they were before the dataset flags
// and the ground-truth capability were introduced: a change to Spec,
// Cached.Key or a source's canonicalization that moves one of these
// silently re-keys every deployed cache directory (each entry would
// rebuild once and the old files would never be read again). Bump
// cacheFormatVersion, and these with it, only when entries must be
// invalidated.
func TestStoreKeysPinned(t *testing.T) {
	keys := map[string]string{}
	cat := Builtin()
	cat.enableCache("unused")
	for _, name := range cat.Names() {
		src, _ := cat.Get(name)
		keys[name] = src.(*Cached).Key()
	}
	keys["caida defaults"] = NewCached(&CAIDAFile{CAIDASpec: CAIDASpec{Path: "testdata/as-rel.txt", Seed: 7}}, "unused").Key()
	keys["caida explicit"] = NewCached(&CAIDAFile{CAIDASpec: CAIDASpec{Path: "as-rel.txt", MaxPrefixes: 64,
		CollectorPeers: 6, LookingGlassASes: 4, Seed: 7}, Parallelism: 3}, "unused").Key()
	want := map[string]string{
		"paper":          "a46a38a7693db849eacf8b24630dc3a2",
		"small":          "4a0999c42010cb725f7e4ae827304d24",
		"large":          "b149ddd1c1406083c604a68512295dc7",
		"caida defaults": "75b6c0596d9c6b215e0375e6ac790122",
		"caida explicit": "2a5eb2145a13ad93011c7700cd2c4cc2",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("store keys moved:\n got %v\nwant %v", keys, want)
	}
}

// withdrawFirstPrefix is a what-if that needs the base engine and
// converges nothing (a withdrawal re-converges no prefix).
func withdrawFirstPrefix(t *testing.T, sess *policyscope.Session) simulate.Scenario {
	t.Helper()
	s, err := sess.Study()
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range s.Topo.Order {
		if ps := s.Topo.ASes[asn].Prefixes; len(ps) > 0 {
			return simulate.Scenario{Events: []simulate.Event{simulate.WithdrawPrefix(ps[0])}}
		}
	}
	t.Fatal("no prefix")
	return simulate.Scenario{}
}

// TestCachedBadForestFallsThrough: a flipped forest byte the codec has
// no way to notice — one valid code replaced by another — is caught by
// the restore validation, and the load degrades to a regenerating miss
// that repairs the entry.
func TestCachedBadForestFallsThrough(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig(73)
	c := NewCached(NewSynthetic(cfg), dir)
	cold, err := c.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, c.Key()+".study")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The forest is the blob's last section. Take the last one-byte
	// neighbor slot of the last prefix's row (a byte below 0x80 after
	// another such byte is a whole varint) and make that AS claim to
	// originate the prefix.
	bad := append([]byte(nil), good...)
	at := len(bad) - 1
	for ; bad[at] < 2 || bad[at] >= 0x80 || bad[at-1] >= 0x80; at-- {
		if at < len(bad)-cfg.NumASes/2 {
			t.Fatal("fixture: no one-byte neighbor slot at the end of the forest")
		}
	}
	bad[at] = byte(simulate.SlotOrigin)
	h, err := studyfmt.DecodeHeader(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.DecodeBody(studyfmt.DecodeOptions{}); err != nil {
		t.Fatalf("the codec noticed the flip (%v); the test wants one only the restore can see", err)
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.readCacheFile(context.Background(), path); !errors.Is(err, simulate.ErrRestore) {
		t.Fatalf("reading the entry: %v, want an ErrRestore", err)
	}

	src := &countingSource{Synthetic: Synthetic{Config: cfg}}
	before := readCacheCounts(t)
	study, err := NewCached(src, dir).Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if src.loads.Load() != 1 {
		t.Fatalf("bad forest was not a regenerating miss (loads=%d)", src.loads.Load())
	}
	if d := before.since(t); d.stale != 1 || d.hit != 0 || d.miss != 0 {
		t.Fatalf("cache counters moved by %+v, want one stale load", d)
	}
	if diffs := simulate.DiffResults(cold.Result, study.Result); len(diffs) > 0 {
		t.Fatalf("regenerated study differs: %v", diffs[0])
	}
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, good) {
		t.Fatal("entry not rewritten to what the cold build wrote")
	}
}
