package dataset

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	policyscope "github.com/policyscope/policyscope"
)

// writeRelFile synthesizes a deterministic CAIDA as-rel hierarchy with
// exactly n ASes: a 5-AS tier-1 peering clique, n/20 tier-2 transit
// ASes dual-homed into the clique, and the rest dual-homed tier-3 edge
// ASes. The arithmetic parent choice keeps the file reproducible
// without a seed.
func writeRelFile(tb testing.TB, path string, n int) {
	tb.Helper()
	if n < 30 {
		tb.Fatalf("writeRelFile wants >= 30 ASes, got %d", n)
	}
	var b bytes.Buffer
	b.WriteString("# synthesized as-rel hierarchy for tests\n")
	const t1 = 5
	t2 := n / 20
	if t2 < 10 {
		t2 = 10
	}
	// Tier-1 clique: ASNs 1..t1, all peers.
	for i := 1; i <= t1; i++ {
		for j := i + 1; j <= t1; j++ {
			fmt.Fprintf(&b, "%d|%d|0\n", i, j)
		}
	}
	// Tier-2: ASNs t1+1..t1+t2, two providers in the clique each.
	for i := 0; i < t2; i++ {
		asn := t1 + 1 + i
		fmt.Fprintf(&b, "%d|%d|-1\n", 1+i%t1, asn)
		fmt.Fprintf(&b, "%d|%d|-1\n", 1+(i+1)%t1, asn)
	}
	// Tier-3: the rest, two tier-2 providers each.
	for asn := t1 + t2 + 1; asn <= n; asn++ {
		i := asn - t1 - t2 - 1
		fmt.Fprintf(&b, "%d|%d|-1\n", t1+1+i%t2, asn)
		fmt.Fprintf(&b, "%d|%d|-1\n", t1+1+(i*7+3)%t2, asn)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
}

func relFixture(tb testing.TB, n int) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), fmt.Sprintf("as-rel-%d.txt", n))
	writeRelFile(tb, path, n)
	return path
}

func TestCAIDATopologyDeterministic(t *testing.T) {
	path := relFixture(t, 200)
	src := NewCAIDAFile(path)
	src.MaxPrefixes = 40
	a, _, _, err := src.world(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := src.world(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Order) != 200 || len(a.PrefixOrigin) != 40 {
		t.Fatalf("topology: %d ASes, %d prefixes", len(a.Order), len(a.PrefixOrigin))
	}
	if fmt.Sprint(a.Order) != fmt.Sprint(b.Order) || fmt.Sprint(a.PrefixOrigin) != fmt.Sprint(b.PrefixOrigin) {
		t.Fatal("caidaTopology is not deterministic")
	}
	// The clique landed in tier 1; everything is tiered 1..3.
	if a.ASes[1].Tier != 1 {
		t.Fatalf("clique AS tier = %d", a.ASes[1].Tier)
	}
	for asn, info := range a.ASes {
		if info.Tier < 1 || info.Tier > 3 {
			t.Fatalf("AS %d tier %d out of range", asn, info.Tier)
		}
	}
}

func TestCAIDASourceLoad(t *testing.T) {
	path := relFixture(t, 300)
	src := NewCAIDAFile(path)
	src.MaxPrefixes = 32
	src.CollectorPeers = 8
	if sp := src.Spec(); sp.Kind != KindCAIDA || sp.CAIDA == nil || sp.CAIDA.MaxPrefixes != 32 {
		t.Fatalf("spec: %+v", sp)
	}
	study, err := src.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !study.HasGroundTruth() {
		t.Fatal("CAIDA study lacks ground truth")
	}
	if study.Intern == nil {
		t.Fatal("CAIDA study has no intern table")
	}
	if got := len(study.Topo.Order); got != 300 {
		t.Fatalf("topology has %d ASes", got)
	}
	if len(study.Peers) == 0 || len(study.Result.Tables) == 0 {
		t.Fatal("no collector peers/tables")
	}
	// The study answers ground-truth experiments.
	sess := policyscope.NewSessionFromStudy(study)
	if _, err := sess.Run(context.Background(), "table5", nil); err != nil {
		t.Fatalf("table5: %v", err)
	}
	if _, err := sess.Run(context.Background(), "whatif", nil); err != nil {
		t.Fatalf("whatif: %v", err)
	}
}

// TestCAIDACacheRoundTrip: a cache hit must answer byte-identically to
// the cold load and must not need the relationships file — the graph is
// embedded in the entry, so deleting the source file proves the hit path
// is self-contained.
func TestCAIDACacheRoundTrip(t *testing.T) {
	path := relFixture(t, 300)
	dir := t.TempDir()
	mkSrc := func() *CAIDAFile {
		src := NewCAIDAFile(path)
		src.MaxPrefixes = 32
		src.CollectorPeers = 8
		return src
	}
	cold, err := NewCached(mkSrc(), dir).Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	warm, err := NewCached(mkSrc(), dir).Load(context.Background())
	if err != nil {
		t.Fatalf("cache hit after deleting the relationships file: %v", err)
	}
	if warm.Intern == nil {
		t.Fatal("cache hit carries no intern table")
	}
	names := []string{"overview", "table2", "table5", "whatif"}
	want := experimentBytes(t, cold, names)
	got := experimentBytes(t, warm, names)
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: CAIDA cache hit diverged", name)
		}
	}
}

// TestCAIDACacheSeesFileEdits: a hit checks the relationships file
// against the graph the entry embeds. An unchanged file hits; a file
// overwritten in place with another graph makes the entry stale, and the
// rebuild answers like a cold build of the new file, not like the old
// file's study.
func TestCAIDACacheSeesFileEdits(t *testing.T) {
	path := relFixture(t, 300)
	dir := t.TempDir()
	mkSrc := func() *CAIDAFile {
		src := NewCAIDAFile(path)
		src.MaxPrefixes = 32
		src.CollectorPeers = 8
		return src
	}
	names := []string{"overview", "table2", "table5"}
	load := func(cache bool) map[string]string {
		t.Helper()
		var src Source = mkSrc()
		if cache {
			src = NewCached(src, dir)
		}
		study, err := src.Load(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return experimentBytes(t, study, names)
	}
	counts := readCacheCounts(t)
	old := load(true)
	load(true)
	if d := counts.since(t); d.miss != 1 || d.hit != 1 || d.stale != 0 {
		t.Fatalf("two loads of an unchanged file: %+v, want one miss then one hit", d)
	}
	writeRelFile(t, path, 200)
	counts = readCacheCounts(t)
	edited, cold := load(true), load(false)
	if d := counts.since(t); d.stale != 1 || d.hit != 0 || d.miss != 0 {
		t.Fatalf("a load after the file was overwritten: %+v, want one stale", d)
	}
	for _, name := range names {
		if edited[name] != cold[name] {
			t.Errorf("%s: a cache load after the file was overwritten differs from a cold build of the new file", name)
		}
	}
	if edited["overview"] == old["overview"] {
		t.Fatal("the two graphs answer the same overview; the test cannot tell them apart")
	}
	counts = readCacheCounts(t)
	load(true)
	if d := counts.since(t); d.hit != 1 {
		t.Fatalf("a load after the rebuild: %+v, want one hit on the replaced entry", d)
	}
}

func TestCAIDAManifestEntry(t *testing.T) {
	dir := t.TempDir()
	writeRelFile(t, filepath.Join(dir, "as-rel.txt"), 200)
	manifest := `{
  "default": "measured",
  "datasets": [
    {"name": "measured", "caida": {"path": "as-rel.txt", "max_prefixes": 16, "peers": 6}}
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
	if cat.Default() != "measured" {
		t.Fatalf("default = %q", cat.Default())
	}
	src, ok := cat.Get("measured")
	if !ok {
		t.Fatal("manifest caida entry missing")
	}
	sp := src.Spec()
	// Relative paths resolve against the manifest directory.
	if sp.Kind != KindCAIDA || sp.CAIDA.Path != filepath.Join(dir, "as-rel.txt") || sp.CAIDA.MaxPrefixes != 16 {
		t.Fatalf("spec = %+v", sp)
	}
	study, err := src.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Topo.Order) != 200 {
		t.Fatalf("manifest caida load: %d ASes", len(study.Topo.Order))
	}

	// A caida entry combined with another kind is rejected.
	bad := `{"datasets": [{"name": "x", "mrt": "y.mrt", "caida": {"path": "as-rel.txt"}}]}`
	if err := Builtin().loadManifestFile(writeManifest(t, dir, bad)); err == nil {
		t.Error("manifest accepted caida+mrt entry")
	}
	// A caida entry without a path is rejected.
	bad = `{"datasets": [{"name": "x", "caida": {"max_prefixes": 4}}]}`
	if err := Builtin().loadManifestFile(writeManifest(t, dir, bad)); err == nil {
		t.Error("manifest accepted pathless caida entry")
	}
}

// TestBuildCatalogAdHocCAIDA: "-dataset caida:<path>" names an ad-hoc
// relationships file on any CLI, no manifest needed.
func TestBuildCatalogAdHocCAIDA(t *testing.T) {
	path := relFixture(t, 200)
	name := "caida:" + path
	flagCfg := tinyConfig(3)
	flagCfg.Parallelism = 3
	cat, err := buildCatalog(flagCfg, name, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if cat.Default() != name {
		t.Fatalf("default = %q", cat.Default())
	}
	src, ok := cat.Get(name)
	if !ok {
		t.Fatal("ad-hoc caida dataset not registered")
	}
	cf, ok := src.(*CAIDAFile)
	if !ok {
		t.Fatalf("source is %T", src)
	}
	if cf.Path != path || cf.Parallelism != 3 {
		t.Fatalf("source = %+v", cf)
	}

	// With a cache dir the source is wrapped like synthetic presets.
	cat, err = buildCatalog(flagCfg, name, "", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if src, _ := cat.Get(name); !isCached(src) {
		t.Error("ad-hoc caida source not wrapped by -cache-dir")
	}

	// A bare "caida:" is rejected before any work.
	if _, err := buildCatalog(flagCfg, "caida:", "", ""); err == nil {
		t.Error("empty caida path accepted")
	}
}

// TestCAIDALargeGraphEndToEnd is the scale acceptance test: a
// synthesized 20k-AS relationships file — 33x the paper preset — loads
// through the CAIDA source, converges end to end, and answers
// experiments. Prefix count is bounded to keep the test CI-sized; the
// graph itself is full-scale.
func TestCAIDALargeGraphEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-AS convergence; skipped in -short mode")
	}
	const nASes = 20000
	path := relFixture(t, nASes)
	src := NewCAIDAFile(path)
	src.MaxPrefixes = 64
	study, err := src.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(study.Topo.Order); got < nASes {
		t.Fatalf("topology has %d ASes, want >= %d", got, nASes)
	}
	if len(study.Result.ReachCount) != 64 {
		t.Fatalf("%d prefixes converged, want 64", len(study.Result.ReachCount))
	}
	// Routes actually propagated across the hierarchy: every prefix is
	// reachable from the overwhelming majority of the graph.
	for p, n := range study.Result.ReachCount {
		if n < nASes/2 {
			t.Fatalf("prefix %v reached only %d of %d ASes", p, n, nASes)
		}
	}
	sess := policyscope.NewSessionFromStudy(study)
	res, err := sess.Run(context.Background(), "table5", nil)
	if err != nil {
		t.Fatalf("table5 over 20k ASes: %v", err)
	}
	if blob, err := json.Marshal(res); err != nil || len(blob) == 0 {
		t.Fatalf("table5 result unmarshalable: %v", err)
	}
}
