package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/obs"
)

var updateWhatIfGolden = flag.Bool("update-whatif-golden", false,
	"rewrite testdata/whatif_golden.json from the responses of the code under test")

const whatIfGoldenPath = "testdata/whatif_golden.json"

// whatIfGoldenScenarios is the fixed sample the golden digests cover on
// the paper preset: sixteen single-link failures strided over the
// canonical edge list, one policy edit and one origin-takeover hijack
// (withdraw + announce of one prefix in a single batch).
func whatIfGoldenScenarios(t *testing.T, s *policyscope.Study) []simulate.Scenario {
	t.Helper()
	edges := s.Topo.Graph.Edges()
	const links = 16
	var out []simulate.Scenario
	for i := 0; i < links; i++ {
		e := edges[i*len(edges)/links]
		out = append(out, simulate.Scenario{
			Name:   fmt.Sprintf("link:%d-%d", e.A, e.B),
			Events: []simulate.Event{simulate.FailLink(e.A, e.B)},
		})
	}
	// Re-pricing one session of a collector peer moves that peer's own
	// best routes, so the policy scenario exercises PeerBestChanged.
	peer := s.Peers[0]
	nbrs := s.Topo.Graph.Neighbors(peer)
	out = append(out, simulate.Scenario{
		Name:   fmt.Sprintf("local_pref:%d:%d", peer, nbrs[len(nbrs)-1]),
		Events: []simulate.Event{simulate.SetLocalPref(peer, nbrs[len(nbrs)-1], 4000)},
	})
	_, stub, _, ok := s.FailoverScenario()
	if !ok {
		t.Fatal("paper preset has no multihomed stub")
	}
	victim := s.Topo.ASes[stub].Prefixes[0]
	attacker := s.Topo.Order[len(s.Topo.Order)/2]
	if attacker == stub {
		attacker = s.Topo.Order[0]
	}
	out = append(out, simulate.Scenario{
		Name: fmt.Sprintf("hijack:%v:%d", victim, attacker),
		Events: []simulate.Event{
			simulate.WithdrawPrefix(victim),
			simulate.AnnouncePrefix(victim, attacker),
		},
	})
	return out
}

// TestWhatIfGoldenDigests pins the POST /whatif JSON body byte for byte:
// the committed SHA-256 digests were generated on the commit before
// PeerBestChanged became a by-product of Engine.Apply, so any drift in
// the report — a count, a missing zero-valued peer, field order — fails
// here. The same digests are required of a session whose base engine
// was restored from a cache entry instead of converged: to /whatif the
// two ways a dataset comes to exist are one.
func TestWhatIfGoldenDigests(t *testing.T) {
	paper := dataset.NewSynthetic(policyscope.DefaultConfig())
	dir := t.TempDir()
	if _, err := dataset.NewCached(paper, dir).Load(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  dataset.Source
	}{
		{"cold build", paper},
		{"cache hit", dataset.NewCached(paper, dir)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat := dataset.NewCatalog()
			if err := cat.Register("paper", tc.src); err != nil {
				t.Fatal(err)
			}
			pool := dataset.NewPool(cat, 1)
			hits := cacheHits(t)
			sess, err := pool.Session(context.Background(), "paper")
			if err != nil {
				t.Fatal(err)
			}
			if got := cacheHits(t) - hits; tc.name == "cache hit" && got != 1 {
				t.Fatalf("the cached source's load counted %v hits: the restore path is not under test", got)
			}
			study, err := sess.Study()
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(New(pool))
			defer ts.Close()

			got := map[string]string{}
			for _, sc := range whatIfGoldenScenarios(t, study) {
				req, err := json.Marshal(sc)
				if err != nil {
					t.Fatal(err)
				}
				status, body := post(t, ts.URL+"/whatif?dataset=paper", string(req))
				if status != http.StatusOK {
					t.Fatalf("%s: status %d: %s", sc.Name, status, body)
				}
				got[sc.Name] = bodyDigest(body)
			}
			checkGoldenDigests(t, whatIfGoldenPath, got, *updateWhatIfGolden && tc.name == "cold build")
		})
	}
}

// cacheHits reads policyscope_dataset_cache_total{result="hit"}.
func cacheHits(t *testing.T) float64 {
	t.Helper()
	var buf bytes.Buffer
	obs.Default.WriteText(&buf)
	samples, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := obs.Find(samples, "policyscope_dataset_cache_total", `result="hit"`)
	return v
}

func bodyDigest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// checkGoldenDigests compares got (name -> SHA-256 of a response body)
// with the committed golden file, or rewrites the file when update is
// set.
func checkGoldenDigests(t *testing.T, path string, got map[string]string, update bool) {
	t.Helper()
	if update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d responses, golden has %d", len(got), len(want))
	}
	for name, digest := range got {
		if want[name] != digest {
			t.Errorf("%s: body digest %s, golden %s", name, digest, want[name])
		}
	}
}
