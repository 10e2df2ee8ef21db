package dataset

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/routeviews"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/studyfmt"
	"github.com/policyscope/policyscope/internal/topogen"
)

// The gob-era cache codec (format version 1, used through PR 5), kept
// verbatim as a test oracle: the flat studyfmt payload must reconstruct
// studies whose experiment output is byte-identical to what the gob
// round trip produced.

type gobStudy struct {
	Config      policyscope.Config
	Peers       []bgp.ASN
	GroundTruth bool
	Tables      []gobTable
	ReachCount  map[netx.Prefix]int
	Timestamp   uint32
	MRT         []byte
}

type gobTable struct {
	Owner  bgp.ASN
	Routes []gobRoute
}

type gobRoute struct {
	From  bgp.ASN
	Route bgp.Route
}

func gobEncodeStudy(t *testing.T, s *policyscope.Study) []byte {
	t.Helper()
	payload := gobStudy{Config: s.Config, Peers: s.Peers, GroundTruth: s.HasGroundTruth()}
	if !payload.GroundTruth {
		t.Fatal("gob oracle only models ground-truth studies here")
	}
	payload.Timestamp = s.Snapshot.Timestamp
	payload.ReachCount = s.Result.ReachCount
	owners := make([]bgp.ASN, 0, len(s.Result.Tables))
	for asn := range s.Result.Tables {
		owners = append(owners, asn)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	for _, asn := range owners {
		ct := gobTable{Owner: asn}
		s.Result.Tables[asn].EachCandidate(func(_ netx.Prefix, from bgp.ASN, r *bgp.Route) {
			ct.Routes = append(ct.Routes, gobRoute{From: from, Route: *r})
		})
		payload.Tables = append(payload.Tables, ct)
	}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(payload); err != nil {
		t.Fatal(err)
	}
	return blob.Bytes()
}

func gobDecodeStudy(t *testing.T, blob []byte) *policyscope.Study {
	t.Helper()
	var payload gobStudy
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	topo, err := topogen.Generate(payload.Config.TopologyConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := &simulate.Result{
		Tables:     make(map[bgp.ASN]*bgp.RIB, len(payload.Tables)),
		ReachCount: payload.ReachCount,
	}
	for _, ct := range payload.Tables {
		rib := bgp.NewRIB(ct.Owner)
		for i := range ct.Routes {
			cr := &ct.Routes[i]
			rib.Upsert(cr.From, &cr.Route)
		}
		res.Tables[ct.Owner] = rib
	}
	snap, err := routeviews.Collect(res, payload.Peers, payload.Timestamp)
	if err != nil {
		t.Fatal(err)
	}
	study, err := policyscope.NewStudyFromInputs(policyscope.StudyInputs{
		Config:   payload.Config,
		Topo:     topo,
		Result:   res,
		Peers:    payload.Peers,
		Snapshot: snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return study
}

// experimentBytes runs the named experiments and returns their marshaled
// results keyed by name.
func experimentBytes(t *testing.T, study *policyscope.Study, names []string) map[string]string {
	t.Helper()
	sess := policyscope.NewSessionFromStudy(study)
	out := make(map[string]string, len(names))
	for _, name := range names {
		res, err := sess.Run(context.Background(), name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(blob)
	}
	return out
}

// TestFlatCacheMatchesGobEra is the refactor's equivalence bar: a study
// round-tripped through the flat studyfmt cache must answer a
// ground-truth-heavy slice of the experiment catalog byte-identically
// to the same study round-tripped through the PR-5 gob codec.
func TestFlatCacheMatchesGobEra(t *testing.T) {
	cfg := tinyConfig(37)
	cold, err := NewSynthetic(cfg).Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gobEra := gobDecodeStudy(t, gobEncodeStudy(t, cold))

	dir := t.TempDir()
	if _, err := NewCached(NewSynthetic(cfg), dir).Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	flat, err := NewCached(&failingSource{spec: NewSynthetic(cfg).Spec()}, dir).Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	names := []string{"overview", "table2", "case3", "decision", "table5", "whatif"}
	want := experimentBytes(t, gobEra, names)
	got := experimentBytes(t, flat, names)
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: flat cache diverged from gob era\n want %s\n  got %s", name, want[name], got[name])
		}
	}
}

// TestCachedStaleVersionFallsThrough: an entry carrying a different
// format version byte must be treated as a miss (regenerate + repair),
// never misread.
func TestCachedStaleVersionFallsThrough(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig(53)
	cold := NewCached(NewSynthetic(cfg), dir)
	if _, err := cold.Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, cold.Key()+".study")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), blob...)
	blob[4]++ // future format version
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	src := &countingSource{Synthetic: Synthetic{Config: cfg}}
	c := NewCached(src, dir)
	study, err := c.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !study.HasGroundTruth() {
		t.Fatal("fallthrough load incomplete")
	}
	if n := src.loads.Load(); n != 1 {
		t.Fatalf("stale-version entry was not treated as a miss (loads=%d)", n)
	}
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if repaired[4] != good[4] {
		t.Fatalf("entry not rewritten at the current version (byte %d)", repaired[4])
	}
	if _, err := NewCached(&failingSource{spec: c.Spec()}, dir).Load(context.Background()); err != nil {
		t.Fatalf("repaired entry unreadable: %v", err)
	}
}

// TestCachedVersion1EntryIsRefused: testdata/v1_entry.study is a cache
// entry written by the last commit of format version 1 (60 ASes, seed 3,
// 6 peers; no forest section, one directory slot fewer). Moved under the
// key the current format hashes the same spec to — the collision the
// version byte exists for — it must be refused as ErrVersion before any
// section is located, counted as a stale load, and replaced by a
// current-version entry.
func TestCachedVersion1EntryIsRefused(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1_entry.study"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := studyfmt.DecodeHeader(v1); !errors.Is(err, studyfmt.ErrVersion) {
		t.Fatalf("version-1 blob: %v, want ErrVersion", err)
	}
	dir := t.TempDir()
	cfg := policyscope.Config{NumASes: 60, Seed: 3, CollectorPeers: 6, LookingGlassASes: 3}
	src := &countingSource{Synthetic: Synthetic{Config: cfg}}
	c := NewCached(src, dir)
	path := filepath.Join(dir, c.Key()+".study")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	counts := readCacheCounts(t)
	study, err := c.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !study.HasGroundTruth() || src.loads.Load() != 1 {
		t.Fatalf("version-1 entry was not a regenerating miss (loads=%d)", src.loads.Load())
	}
	if d := counts.since(t); d.stale != 1 || d.hit != 0 || d.miss != 0 {
		t.Fatalf("cache counters moved by %+v, want one stale load", d)
	}
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rewritten[4] != studyfmt.Version {
		t.Fatalf("entry still carries version byte %d", rewritten[4])
	}
	if _, err := NewCached(&failingSource{spec: c.Spec()}, dir).Load(context.Background()); err != nil {
		t.Fatalf("rewritten entry unreadable: %v", err)
	}
}

// TestCachedTruncatedEntryFallsThrough: truncation at any point —
// inside the header, the directory, or mid-section — degrades to a
// regenerating miss, not a failure.
func TestCachedTruncatedEntryFallsThrough(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig(59)
	cold := NewCached(NewSynthetic(cfg), dir)
	if _, err := cold.Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, cold.Key()+".study")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 4, 40, len(blob) / 2, len(blob) - 1} {
		if err := os.WriteFile(path, blob[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		src := &countingSource{Synthetic: Synthetic{Config: cfg}}
		study, err := NewCached(src, dir).Load(context.Background())
		if err != nil {
			t.Fatalf("truncation at %d: %v", n, err)
		}
		if !study.HasGroundTruth() || src.loads.Load() != 1 {
			t.Fatalf("truncation at %d: not a regenerating miss (loads=%d)", n, src.loads.Load())
		}
	}
}

// TestCacheHitInternSharingRace: a cache hit's study carries the intern
// table its decoder populated; concurrent pool hits build engines and
// run what-if work against that shared table. Run with -race — the
// point of the test is that first-writer-wins interning from many
// engine workers is clean.
func TestCacheHitInternSharingRace(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig(61)
	if _, err := NewCached(NewSynthetic(cfg), dir).Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	if err := cat.Register("cached", NewCached(&failingSource{spec: NewSynthetic(cfg).Spec()}, dir)); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(cat, 2)

	sess, err := pool.Session(context.Background(), "cached")
	if err != nil {
		t.Fatal(err)
	}
	study, err := sess.Study()
	if err != nil {
		t.Fatal(err)
	}
	if study.Intern == nil {
		t.Fatal("cache-hit study has no shared intern table")
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := pool.Session(context.Background(), "cached")
			if err != nil {
				errs <- err
				return
			}
			// Alternate a full engine build (whatif re-converges through
			// the shared intern) with a plain table read.
			name := "whatif"
			if w%2 == 1 {
				name = "table2"
			}
			if _, err := s.Run(context.Background(), name, nil); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
