package dataset

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/internal/studyfmt"
)

// tinyConfig returns a fast-to-build study configuration; vary seed to
// get distinct universes.
func tinyConfig(seed int64) policyscope.Config {
	return policyscope.Config{NumASes: 150, Seed: seed, CollectorPeers: 10, LookingGlassASes: 6}
}

func writeMRT(t *testing.T, study *policyscope.Study) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.mrt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := study.Snapshot.WriteMRT(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSyntheticSource(t *testing.T) {
	src := NewSynthetic(tinyConfig(3))
	if sp := src.Spec(); sp.Kind != KindSynthetic || sp.Synthetic == nil || sp.Synthetic.NumASes != 150 {
		t.Fatalf("spec: %+v", sp)
	}
	study, err := src.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !study.HasGroundTruth() || len(study.Peers) == 0 {
		t.Fatal("synthetic study incomplete")
	}
}

// TestMRTRoundTripExperiments is the import contract: a synthetic
// study's snapshot written as MRT and imported back as a snapshot-only
// dataset reproduces byte-identical results for every
// ground-truth-free registry experiment, and answers every
// ground-truth-dependent one with ErrNeedsGroundTruth rather than a
// panic. The originating study analyzes over inferred relationships —
// the paper's actual setting, and the only relationship source an
// import can have.
func TestMRTRoundTripExperiments(t *testing.T) {
	cfg := tinyConfig(11)
	cfg.UseInferredRelationships = true
	study, err := policyscope.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth := policyscope.NewSessionFromStudy(study)

	src := NewMRTFile(writeMRT(t, study))
	imported, err := src.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if imported.HasGroundTruth() {
		t.Fatal("MRT import claims ground truth")
	}
	snapSess := policyscope.NewSessionFromStudy(imported)

	ctx := context.Background()
	ranFree := 0
	for _, info := range policyscope.Experiments() {
		if info.NeedsGroundTruth {
			_, err := snapSess.Run(ctx, info.Name, nil)
			if !errors.Is(err, policyscope.ErrNeedsGroundTruth) {
				t.Errorf("%s: want ErrNeedsGroundTruth, got %v", info.Name, err)
			}
			continue
		}
		ranFree++
		want, err := truth.Run(ctx, info.Name, nil)
		if err != nil {
			t.Fatalf("%s on synthetic: %v", info.Name, err)
		}
		got, err := snapSess.Run(ctx, info.Name, nil)
		if err != nil {
			t.Fatalf("%s on import: %v", info.Name, err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("%s: import diverged from origin\n want %s\n  got %s", info.Name, wantJSON, gotJSON)
		}
	}
	if ranFree < 5 {
		t.Fatalf("only %d ground-truth-free experiments ran; the import surface shrank", ranFree)
	}

	// The full battery over the import filters to the snapshot-capable
	// experiments instead of aborting at the first ground-truth one.
	doc, err := snapSess.RunAllJSON(ctx, policyscope.RunAllOptions{})
	if err != nil {
		t.Fatalf("RunAllJSON on import: %v", err)
	}
	if len(doc.Experiments) != ranFree {
		var names []string
		for _, e := range doc.Experiments {
			names = append(names, e.Name)
		}
		t.Fatalf("RunAll on import ran %v, want the %d snapshot-capable experiments", names, ranFree)
	}
}

// failingSource stands in for an expensive source that must not be hit.
type failingSource struct{ spec Spec }

func (f *failingSource) Spec() Spec { return f.spec }
func (f *failingSource) Load(context.Context) (*policyscope.Study, error) {
	return nil, fmt.Errorf("cold load reached")
}

func TestCachedSourceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig(7)
	cold := NewCached(NewSynthetic(cfg), dir)
	counts := readCacheCounts(t)
	study, err := cold.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, cold.Key()+".study")); err != nil {
		t.Fatalf("cache entry not written: %v", err)
	}
	if d := counts.since(t); d.miss != 1 || d.hit != 0 || d.stale != 0 {
		t.Fatalf("cold load moved the cache counters by %+v, want one miss", d)
	}

	// A second Cached over the same spec but a poisoned inner source
	// must resolve purely from disk.
	hit := NewCached(&failingSource{spec: cold.Spec()}, dir)
	counts = readCacheCounts(t)
	cached, err := hit.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !cached.HasGroundTruth() {
		t.Fatal("cache hit lost ground truth")
	}
	if d := counts.since(t); d.hit != 1 || d.miss != 0 || d.stale != 0 {
		t.Fatalf("second load moved the cache counters by %+v, want one hit", d)
	}

	// The reconstructed study answers a ground-truth-heavy slice of the
	// catalog byte-identically: overview (topology + inference +
	// SA truth), table2 (full vantage tables), case3 (path index),
	// decision (decision-step provenance), table5 (snapshot), whatif
	// (engine over the regenerated topology).
	a := policyscope.NewSessionFromStudy(study)
	b := policyscope.NewSessionFromStudy(cached)
	ctx := context.Background()
	for _, name := range []string{"overview", "table2", "case3", "decision", "table5", "whatif"} {
		want, err := a.Run(ctx, name, nil)
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		got, err := b.Run(ctx, name, nil)
		if err != nil {
			t.Fatalf("%s cached: %v", name, err)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("%s: cache hit diverged\n want %s\n  got %s", name, wantJSON, gotJSON)
		}
	}
}

// TestCachedHitOverlaysParallelism: a hit must run with the *reading*
// process's execution knob, not the writer's — Parallelism is
// canonicalized out of the key, so entries are shared across -j values.
// The reader's value has to be in place before the entry's body is
// decoded and the base engine restored, not patched onto the finished
// study: it bounds the decode workers and is the restored engine's
// worker bound.
func TestCachedHitOverlaysParallelism(t *testing.T) {
	dir := t.TempDir()
	cfg8 := tinyConfig(19)
	cfg8.Parallelism = 8
	if _, err := NewCached(NewSynthetic(cfg8), dir).Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfg1 := cfg8
	cfg1.Parallelism = 1
	reader := NewCached(NewSynthetic(cfg1), dir)
	entry := filepath.Join(dir, reader.Key()+".study")
	before, err := os.Stat(entry)
	if err != nil {
		t.Fatalf("reader hashes to a different key: %v", err)
	}
	blob, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	h, err := studyfmt.DecodeHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	var written policyscope.Config
	if err := json.Unmarshal(h.ConfigJSON, &written); err != nil || written.Parallelism != 8 {
		t.Fatalf("entry records Parallelism %d (%v), the test wants the writer's 8 in it", written.Parallelism, err)
	}
	if got, err := reader.entryConfig(h); err != nil || got.Parallelism != 1 {
		t.Fatalf("decode and restore would run with Parallelism %d (%v), want the reader's 1", got.Parallelism, err)
	}
	study, err := reader.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if study.Config.Parallelism != 1 {
		t.Fatalf("hit kept the writer's Parallelism %d", study.Config.Parallelism)
	}
	eng, err := study.WhatIfEngine()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Parallelism() != 1 {
		t.Fatalf("restored engine is bounded by the writer's Parallelism %d", eng.Parallelism())
	}
	after, err := os.Stat(entry)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatal("entry rewritten: the load was a miss, not a hit")
	}
}

func TestCachedSnapshotOnlySource(t *testing.T) {
	cfg := tinyConfig(13)
	cfg.UseInferredRelationships = true
	study, err := policyscope.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cold := NewCached(NewMRTFile(writeMRT(t, study)), dir)
	first, err := cold.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hit := NewCached(&failingSource{spec: cold.Spec()}, dir)
	second, err := hit.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second.HasGroundTruth() {
		t.Fatal("snapshot-only cache entry grew ground truth")
	}
	aRes, _ := policyscope.NewSessionFromStudy(first).Run(context.Background(), "table5", nil)
	bRes, _ := policyscope.NewSessionFromStudy(second).Run(context.Background(), "table5", nil)
	aJSON, _ := json.Marshal(aRes)
	bJSON, _ := json.Marshal(bRes)
	if !bytes.Equal(aJSON, bJSON) {
		t.Fatal("snapshot cache hit diverged")
	}
}

func TestCachedCorruptEntryFallsThrough(t *testing.T) {
	dir := t.TempDir()
	c := NewCached(NewSynthetic(tinyConfig(5)), dir)
	path := filepath.Join(dir, c.Key()+".study")
	if err := os.WriteFile(path, []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	study, err := c.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !study.HasGroundTruth() {
		t.Fatal("fallthrough load incomplete")
	}
	// The corrupt entry was repaired.
	hit := NewCached(&failingSource{spec: c.Spec()}, dir)
	if _, err := hit.Load(context.Background()); err != nil {
		t.Fatalf("repaired entry unreadable: %v", err)
	}
}

func TestCatalogManifest(t *testing.T) {
	dir := t.TempDir()
	study, err := policyscope.NewStudy(tinyConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	mrtPath := filepath.Join(dir, "import.mrt")
	f, err := os.Create(mrtPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := study.Snapshot.WriteMRT(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	manifest := `{
  "default": "stress",
  "datasets": [
    {"name": "stress", "synthetic": {"ases": 5000, "seed": 7, "peers": 56}},
    {"name": "import", "mrt": "import.mrt"}
  ]
}`
	mPath := filepath.Join(dir, "datasets.json")
	if err := os.WriteFile(mPath, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	cat := Builtin()
	if err := cat.loadManifestFile(mPath); err != nil {
		t.Fatal(err)
	}
	if cat.Default() != "stress" {
		t.Fatalf("default = %q", cat.Default())
	}
	names := cat.Names()
	if len(names) != 5 { // paper, small, large + 2 manifest entries
		t.Fatalf("names = %v", names)
	}
	src, ok := cat.Get("import")
	if !ok {
		t.Fatal("manifest MRT entry missing")
	}
	// Relative MRT paths resolve against the manifest's directory.
	if _, err := src.Load(context.Background()); err != nil {
		t.Fatalf("manifest MRT load: %v", err)
	}
	if sp := src.Spec(); sp.Kind != KindMRT || sp.MRT != mrtPath {
		t.Fatalf("spec = %+v", sp)
	}

	// Rejections: duplicates, both kinds, neither kind.
	for _, bad := range []string{
		`{"datasets": [{"name": "paper", "synthetic": {"ases": 10, "seed": 1}}]}`,
		`{"datasets": [{"name": "x", "synthetic": {"ases": 10, "seed": 1}, "mrt": "y"}]}`,
		`{"datasets": [{"name": "x"}]}`,
		`{"datasets": []}`,
	} {
		if err := Builtin().loadManifestFile(writeManifest(t, dir, bad)); err == nil {
			t.Errorf("manifest accepted: %s", bad)
		}
	}
}

// writeManifest writes a manifest into dir and returns its path.
func writeManifest(t *testing.T, dir, manifest string) string {
	t.Helper()
	path := filepath.Join(dir, "manifest-under-test.json")
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpecCanonicalizesParallelism: the worker count cannot change the
// generated data, so it must not split the cache key.
func TestSpecCanonicalizesParallelism(t *testing.T) {
	a := tinyConfig(3)
	b := tinyConfig(3)
	b.Parallelism = 8
	if NewCached(NewSynthetic(a), "").Key() != NewCached(NewSynthetic(b), "").Key() {
		t.Fatal("Parallelism split the cache key")
	}
	c := tinyConfig(4)
	if NewCached(NewSynthetic(a), "").Key() == NewCached(NewSynthetic(c), "").Key() {
		t.Fatal("distinct seeds share a cache key")
	}
}

// TestEnableCacheSkipsMRT: the cache key for an MRT source is the file
// path, so wrapping it would serve stale data after the file changes
// (and a hit re-parses the bytes anyway — no win).
func TestEnableCacheSkipsMRT(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Register("syn", NewSynthetic(tinyConfig(3))); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("mrt", NewMRTFile("x.mrt")); err != nil {
		t.Fatal(err)
	}
	cat.enableCache(t.TempDir())
	if src, _ := cat.Get("syn"); !isCached(src) {
		t.Error("synthetic source not wrapped")
	}
	if src, _ := cat.Get("mrt"); isCached(src) {
		t.Error("MRT source wrapped in the path-keyed cache")
	}
}

func isCached(src Source) bool { _, ok := src.(*Cached); return ok }

// buildCatalog is Flags.Catalog for a configuration already in hand: the
// flags a CLI would have parsed to describe cfg.
func buildCatalog(cfg policyscope.Config, name, manifest, cacheDir string) (*Catalog, error) {
	f := Flags{ASes: cfg.NumASes, Seed: cfg.Seed, Peers: cfg.CollectorPeers,
		Dataset: name, Manifest: manifest, CacheDir: cacheDir}
	return f.Catalog(cfg)
}

// TestBuildCatalogManifestOwnsDefault: a manifest entry named
// "default" wins over the flag-derived configuration instead of
// failing startup with a duplicate-name error.
func TestBuildCatalogManifestOwnsDefault(t *testing.T) {
	dir := t.TempDir()
	mPath := filepath.Join(dir, "datasets.json")
	manifest := `{"datasets": [{"name": "default", "synthetic": {"ases": 77, "seed": 1}}]}`
	if err := os.WriteFile(mPath, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := buildCatalog(tinyConfig(3), "", mPath, "")
	if err != nil {
		t.Fatal(err)
	}
	src, ok := cat.Get("default")
	if !ok {
		t.Fatal("no default dataset")
	}
	if sp := src.Spec(); sp.Synthetic == nil || sp.Synthetic.NumASes != 77 {
		t.Fatalf("flag config shadowed the manifest's default: %+v", sp)
	}

	// A manifest default that names the built-in default ("paper") is
	// still an explicit choice: the flag-derived config must not
	// override it.
	keepPaper := filepath.Join(dir, "keep-paper.json")
	if err := os.WriteFile(keepPaper,
		[]byte(`{"default": "paper", "datasets": [{"name": "x", "synthetic": {"ases": 9, "seed": 1}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cat2, err := buildCatalog(tinyConfig(3), "", keepPaper, "")
	if err != nil {
		t.Fatal(err)
	}
	if cat2.Default() != "paper" {
		t.Fatalf("manifest default \"paper\" overridden to %q", cat2.Default())
	}

	// A manifest clash with a preset stays an error, but a readable one.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"datasets": [{"name": "paper", "synthetic": {"ases": 9, "seed": 1}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildCatalog(tinyConfig(3), "", bad, ""); err == nil || !strings.Contains(err.Error(), "manifest entry 0 (paper)") {
		t.Fatalf("preset clash error unhelpful: %v", err)
	}
}

// TestPoolBuildSurvivesCallerCancel: the waiter whose context dies gets
// its own cancellation error, while the build — which serves everyone —
// completes and lands in the pool for the next caller.
func TestPoolBuildSurvivesCallerCancel(t *testing.T) {
	cat := NewCatalog()
	src := &countingSource{Synthetic: Synthetic{Config: tinyConfig(41)}}
	if err := cat.Register("only", src); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(cat, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.Session(ctx, "only"); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled caller got %v", err)
	}
	// The detached build finishes and is reused: no second Load.
	sess, err := pool.Session(context.Background(), "only")
	if err != nil {
		t.Fatal(err)
	}
	if sess == nil || src.loads.Load() != 1 {
		t.Fatalf("loads = %d after canceled first caller", src.loads.Load())
	}
}

// countingSource counts Load calls through to a synthetic source.
type countingSource struct {
	Synthetic
	loads atomic.Int64
}

func (c *countingSource) Load(ctx context.Context) (*policyscope.Study, error) {
	c.loads.Add(1)
	return c.Synthetic.Load(ctx)
}

// gatedSource blocks Load until released, modeling a slow build.
type gatedSource struct {
	countingSource
	release chan struct{}
}

func (g *gatedSource) Load(ctx context.Context) (*policyscope.Study, error) {
	<-g.release
	return g.countingSource.Load(ctx)
}

// TestLoadTopology: every ground-truth source — bare or behind the cache
// — yields through its capability the topology and peer set a full Load
// of it converges, without simulating; snapshot-only sources are
// rejected with the typed sentinel.
func TestLoadTopology(t *testing.T) {
	caida := NewCAIDAFile(relFixture(t, 200))
	caida.MaxPrefixes, caida.CollectorPeers = 24, 6
	var study *policyscope.Study
	for _, tc := range []struct {
		name string
		src  Source
	}{
		{"synthetic", NewSynthetic(tinyConfig(29))},
		{"cached synthetic", NewCached(NewSynthetic(tinyConfig(29)), t.TempDir())},
		{"caida", caida},
		{"cached caida", NewCached(caida, t.TempDir())},
	} {
		runs := metric(t, "policyscope_converge_runs_total", "")
		topo, peers, err := LoadTopology(context.Background(), tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := metric(t, "policyscope_converge_runs_total", "") - runs; n != 0 {
			t.Errorf("%s: LoadTopology converged %v times", tc.name, n)
		}
		if study, err = tc.src.Load(context.Background()); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fmt.Sprint(topo.Order) != fmt.Sprint(study.Topo.Order) ||
			fmt.Sprint(topo.PrefixOrigin) != fmt.Sprint(study.Topo.PrefixOrigin) ||
			fmt.Sprint(peers) != fmt.Sprint(study.Peers) {
			t.Errorf("%s: LoadTopology diverged from Load: %d vs %d ASes, %d vs %d prefixes, peers %v vs %v",
				tc.name, len(topo.Order), len(study.Topo.Order),
				len(topo.PrefixOrigin), len(study.Topo.PrefixOrigin), peers, study.Peers)
		}
	}

	if _, _, err := LoadTopology(context.Background(), NewMRTFile(writeMRT(t, study))); !errors.Is(err, policyscope.ErrNeedsGroundTruth) {
		t.Fatalf("snapshot-only source: want ErrNeedsGroundTruth, got %v", err)
	}
}

// TestPoolKeepsInFlightBuilds: trimming the LRU must never evict an
// entry whose build is still running — that would defeat singleflight
// under exactly the cold-start stampede the pool absorbs.
func TestPoolKeepsInFlightBuilds(t *testing.T) {
	cat := NewCatalog()
	slow := &gatedSource{release: make(chan struct{})}
	slow.Config = tinyConfig(43)
	if err := cat.Register("slow", slow); err != nil {
		t.Fatal(err)
	}
	fast := &countingSource{Synthetic: Synthetic{Config: tinyConfig(44)}}
	if err := cat.Register("fast", fast); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(cat, 1)

	first := make(chan error, 1)
	go func() {
		_, err := pool.Session(context.Background(), "slow")
		first <- err
	}()
	// "fast" lands while "slow" is mid-build; capacity 1 must not evict
	// the building entry (that would strand its waiters' singleflight).
	if _, err := pool.Session(context.Background(), "fast"); err != nil {
		t.Fatal(err)
	}
	// A second request for "slow" must join the in-flight build, not
	// start a duplicate one against a freshly inserted entry.
	second := make(chan error, 1)
	go func() {
		_, err := pool.Session(context.Background(), "slow")
		second <- err
	}()
	close(slow.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if n := slow.loads.Load(); n != 1 {
		t.Fatalf("slow dataset built %d times; the in-flight entry was evicted", n)
	}
	// Once every build resolves, the pool settles back to capacity.
	st := pool.Stats()
	if st.Resident > 1 {
		t.Fatalf("pool settled above capacity: %+v", st)
	}
}

// TestPoolSingleflight proves N concurrent first queries against one
// dataset trigger exactly one build.
func TestPoolSingleflight(t *testing.T) {
	cat := NewCatalog()
	src := &countingSource{Synthetic: Synthetic{Config: tinyConfig(23)}}
	if err := cat.Register("only", src); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(cat, 2)
	var wg sync.WaitGroup
	sessions := make([]*policyscope.Session, 10)
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := pool.Session(context.Background(), "only")
			if err != nil {
				t.Error(err)
				return
			}
			sessions[i] = sess
		}(i)
	}
	wg.Wait()
	if n := src.loads.Load(); n != 1 {
		t.Fatalf("source loaded %d times", n)
	}
	for _, sess := range sessions[1:] {
		if sess != sessions[0] {
			t.Fatal("concurrent callers got different sessions")
		}
	}
}

func TestPoolUnknownDataset(t *testing.T) {
	pool := NewPool(Builtin(), 1)
	_, err := pool.Session(context.Background(), "nope")
	var unknown *UnknownDatasetError
	if !errors.As(err, &unknown) || unknown.Name != "nope" {
		t.Fatalf("err = %v", err)
	}
}

func TestPoolFailedBuildRetries(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Register("broken", NewMRTFile(filepath.Join(t.TempDir(), "missing.mrt"))); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(cat, 1)
	pool.SetFailureCooldown(50 * time.Millisecond)
	if _, err := pool.Session(context.Background(), "broken"); err == nil {
		t.Fatal("expected load failure")
	}
	// Inside the cooldown the pool refuses to hot-loop the builder: the
	// request gets a typed cooldown error without a fresh Load.
	_, err := pool.Session(context.Background(), "broken")
	var cool *BuildCooldownError
	if !errors.As(err, &cool) {
		t.Fatalf("err during cooldown = %v, want *BuildCooldownError", err)
	}
	if cool.Name != "broken" || cool.RetryAfter <= 0 || cool.LastError == "" {
		t.Fatalf("cooldown error incomplete: %+v", cool)
	}
	st := pool.Stats()
	if st.Resident != 0 || st.Misses != 1 {
		t.Fatalf("stats after cooldown reject: %+v (cooldown reject must not count a miss)", st)
	}
	// The failure leaves no entry but must leave a trace: healthz
	// distinguishes a failing source from a cold one by LastErrors.
	le, ok := st.LastErrors["broken"]
	if !ok || le.Error == "" {
		t.Fatalf("stats carry no last error for the failing dataset: %+v", st)
	}
	if le.AgeSeconds < 0 {
		t.Fatalf("negative error age: %+v", le)
	}
	if le.RetryAfterSeconds <= 0 {
		t.Fatalf("cooldown not visible in stats: %+v", le)
	}
	// Once the cooldown lapses the failure is not cached: the pool
	// retries the source (and fails afresh).
	time.Sleep(60 * time.Millisecond)
	if _, err := pool.Session(context.Background(), "broken"); err == nil {
		t.Fatal("expected load failure on retry")
	} else if errors.As(err, &cool) {
		t.Fatalf("retry after cooldown still rejected: %v", err)
	}
	if st := pool.Stats(); st.Misses != 2 {
		t.Fatalf("retry after cooldown did not reach the source: %+v", st)
	}
}

// TestPoolStatsEntries: resident entries report readiness, age and
// build duration.
func TestPoolStatsEntries(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Register("only", NewSynthetic(tinyConfig(23))); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(cat, 2)
	if _, err := pool.Session(context.Background(), "only"); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if len(st.Entries) != 1 {
		t.Fatalf("entries = %+v, want 1", st.Entries)
	}
	e := st.Entries[0]
	if e.Name != "only" || !e.Ready {
		t.Fatalf("entry = %+v, want ready entry for %q", e, "only")
	}
	if e.AgeSeconds <= 0 || e.BuildSeconds <= 0 || e.BuildSeconds > e.AgeSeconds {
		t.Fatalf("entry timings inconsistent: %+v", e)
	}
	if len(st.LastErrors) != 0 {
		t.Fatalf("unexpected last errors: %+v", st.LastErrors)
	}
}

// TestPoolConcurrentMixedDatasets is the acceptance scenario: at least
// 8 concurrent queries across at least 3 datasets through a pool small
// enough to force evictions, racing rebuilds against evictions and
// verifying every dataset keeps answering with its own deterministic
// bytes. Run with -race.
func TestPoolConcurrentMixedDatasets(t *testing.T) {
	cat := NewCatalog()
	names := []string{"a", "b", "c", "d"}
	for i, name := range names {
		if err := cat.Register(name, NewSynthetic(tinyConfig(int64(31+i)))); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewPool(cat, 2) // 4 datasets through 2 slots → guaranteed churn

	// Reference bytes per dataset, computed single-threaded.
	want := make(map[string]string, len(names))
	for _, name := range names {
		sess, err := pool.Session(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background(), "table5", nil)
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := json.Marshal(res)
		want[name] = string(blob)
	}

	const workers = 12
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := names[(w+r)%len(names)]
				sess, err := pool.Session(context.Background(), name)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", name, err)
					return
				}
				res, err := sess.Run(context.Background(), "table5", nil)
				if err != nil {
					errs <- fmt.Errorf("%s table5: %w", name, err)
					return
				}
				blob, _ := json.Marshal(res)
				if string(blob) != want[name] {
					errs <- fmt.Errorf("%s answered another dataset's bytes", name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := pool.Stats()
	if st.Evictions == 0 {
		t.Fatal("pool never evicted: the test lost its churn")
	}
	if st.Resident > 2 {
		t.Fatalf("resident %d exceeds capacity 2", st.Resident)
	}
	t.Logf("pool stats: %+v", st)
}
