package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
)

func testConfig() policyscope.Config {
	cfg := policyscope.DefaultConfig()
	cfg.NumASes = 200
	cfg.Seed = 5
	cfg.CollectorPeers = 10
	cfg.LookingGlassASes = 6
	return cfg
}

// testCache is the test binary's one study cache directory: every
// synthetic dataset a test serves without asserting a cold build loads
// through it, so the universes the tests share converge once per run of
// the binary — the product's cache, tested by being used.
var testCache string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "server-test-cache-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testCache = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func cachedSynthetic(cfg policyscope.Config) dataset.Source {
	return dataset.NewCached(dataset.NewSynthetic(cfg), testCache)
}

// testServer serves a three-dataset catalog: "default" (the synthetic
// study the old single-session server carried), "tiny" (a second
// synthetic universe), and "imported" (an MRT snapshot of tiny, i.e. a
// snapshot-only dataset).
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	cat := dataset.NewCatalog()
	if err := cat.Register("default", cachedSynthetic(testConfig())); err != nil {
		t.Fatal(err)
	}
	tiny := policyscope.Config{NumASes: 120, Seed: 7, CollectorPeers: 8, LookingGlassASes: 5}
	if err := cat.Register("tiny", cachedSynthetic(tiny)); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("imported", dataset.NewMRTFile(writeTinyMRT(t, tiny))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(dataset.NewPool(cat, 3)))
	t.Cleanup(ts.Close)
	return ts
}

// writeTinyMRT materializes an MRT snapshot for the tiny config.
func writeTinyMRT(t *testing.T, cfg policyscope.Config) string {
	t.Helper()
	study, err := cachedSynthetic(cfg).Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.mrt")
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

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestExperimentsEndpoint(t *testing.T) {
	ts := testServer(t)
	status, body := get(t, ts.URL+"/experiments")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var infos []struct {
		Name             string          `json:"name"`
		Title            string          `json:"title"`
		Group            string          `json:"group"`
		NeedsGroundTruth bool            `json:"needs_ground_truth"`
		Params           json.RawMessage `json:"params"`
	}
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	names := map[string]bool{}
	snapshotOK := map[string]bool{}
	for _, info := range infos {
		names[info.Name] = true
		snapshotOK[info.Name] = !info.NeedsGroundTruth
	}
	for _, want := range []string{"table1", "table5", "figure9", "whatif", "summary"} {
		if !names[want] {
			t.Errorf("catalog missing %s", want)
		}
	}
	if !snapshotOK["table5"] || snapshotOK["table1"] {
		t.Errorf("needs_ground_truth flags wrong: table5 snapshotOK=%v table1 snapshotOK=%v",
			snapshotOK["table5"], snapshotOK["table1"])
	}
}

func TestDatasetsEndpoint(t *testing.T) {
	ts := testServer(t)
	status, body := get(t, ts.URL+"/datasets")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var infos []struct {
		Name    string `json:"name"`
		Default bool   `json:"default"`
		Spec    struct {
			Kind string `json:"kind"`
		} `json:"spec"`
	}
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if len(infos) != 3 {
		t.Fatalf("want 3 datasets, got %s", body)
	}
	kinds := map[string]string{}
	var def string
	for _, info := range infos {
		kinds[info.Name] = info.Spec.Kind
		if info.Default {
			def = info.Name
		}
	}
	if def != "default" || kinds["imported"] != dataset.KindMRT || kinds["tiny"] != dataset.KindSynthetic {
		t.Fatalf("unexpected catalog: %s", body)
	}
}

func TestRunEndpoint(t *testing.T) {
	ts := testServer(t)

	// Defaults (empty body), JSON response.
	status, body := post(t, ts.URL+"/run/table5", "")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out struct {
		Name   string `json:"name"`
		Result struct {
			Rows []json.RawMessage `json:"rows"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "table5" || len(out.Result.Rows) == 0 {
		t.Fatalf("unexpected payload: %s", body)
	}

	// Params accepted.
	status, body = post(t, ts.URL+"/run/table6", `{"providers": 2, "max_rows": 3, "min_prefixes": 1}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}

	// Text rendering.
	status, body = post(t, ts.URL+"/run/table2?format=text", "")
	if status != http.StatusOK || !strings.Contains(string(body), "Table 2") {
		t.Fatalf("text format: %d %s", status, body)
	}

	// Unknown name → 404; bad params → 422.
	if status, _ = post(t, ts.URL+"/run/nope", ""); status != http.StatusNotFound {
		t.Fatalf("unknown experiment status %d", status)
	}
	if status, _ = post(t, ts.URL+"/run/table6", `{"bogus": 1}`); status != http.StatusUnprocessableEntity {
		t.Fatalf("bad params status %d", status)
	}

	// ?format= is json or text; anything else is refused, not answered
	// as JSON.
	status, body = post(t, ts.URL+"/run/table2?format=txt", "")
	var refusal struct {
		Error string `json:"error"`
	}
	if status != http.StatusUnprocessableEntity || json.Unmarshal(body, &refusal) != nil ||
		!strings.Contains(refusal.Error, `"txt"`) {
		t.Fatalf("format=txt: %d %s", status, body)
	}
}

// TestRunErrorsAnsweredEveryTime: a session keeps the answers it
// computes, never a refusal — a parameter error and a dataset that cannot
// answer read 422 with the same body however often they are asked, and a
// good answer asked twice reads the same bytes in each format.
func TestRunErrorsAnsweredEveryTime(t *testing.T) {
	ts := testServer(t)
	for _, q := range []struct {
		path, body string
		want       int
	}{
		{"/run/table6", `{"bogus": 1}`, http.StatusUnprocessableEntity},
		{"/run/inferbakeoff", `{"algos": ["nope"]}`, http.StatusUnprocessableEntity},
		{"/run/table1?dataset=imported", "", http.StatusUnprocessableEntity},
		{"/run/table5?dataset=imported", "", http.StatusOK},
		{"/run/table5?dataset=imported&format=text", "", http.StatusOK},
	} {
		status, first := post(t, ts.URL+q.path, q.body)
		if status != q.want {
			t.Fatalf("%s %s: status %d, want %d: %s", q.path, q.body, status, q.want, first)
		}
		status, again := post(t, ts.URL+q.path, q.body)
		if status != q.want || !bytes.Equal(first, again) {
			t.Fatalf("%s %s asked again: status %d, want %d; bodies equal: %v",
				q.path, q.body, status, q.want, bytes.Equal(first, again))
		}
	}
}

// TestDatasetSelection exercises ?dataset= across the three catalog
// entries: a second synthetic universe answers with different bytes
// than the default, an unknown name 404s before any work, and the
// imported snapshot runs snapshot-capable experiments but answers
// ground-truth-dependent ones with 422.
func TestDatasetSelection(t *testing.T) {
	ts := testServer(t)

	status, defBody := post(t, ts.URL+"/run/table5", "")
	if status != http.StatusOK {
		t.Fatalf("default: %d %s", status, defBody)
	}
	status, tinyBody := post(t, ts.URL+"/run/table5?dataset=tiny", "")
	if status != http.StatusOK {
		t.Fatalf("tiny: %d %s", status, tinyBody)
	}
	if string(defBody) == string(tinyBody) {
		t.Fatal("tiny dataset answered with the default dataset's bytes")
	}

	// Unknown dataset → 404, and no session was built for it.
	if status, _ = post(t, ts.URL+"/run/table5?dataset=nope", ""); status != http.StatusNotFound {
		t.Fatalf("unknown dataset status %d", status)
	}

	// The imported MRT snapshot runs the SA detector...
	status, body := post(t, ts.URL+"/run/table5?dataset=imported", "")
	if status != http.StatusOK {
		t.Fatalf("imported table5: %d %s", status, body)
	}
	// ...but has no ground truth for Table 1 or what-ifs.
	status, body = post(t, ts.URL+"/run/table1?dataset=imported", "")
	if status != http.StatusUnprocessableEntity || !strings.Contains(string(body), "ground truth") {
		t.Fatalf("imported table1: %d %s", status, body)
	}
	status, body = post(t, ts.URL+"/whatif?dataset=imported", `{"events": [{"kind": "link_fail", "a": 1, "b": 2}]}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("imported whatif: %d %s", status, body)
	}
}

func TestWhatIfEndpoint(t *testing.T) {
	ts := testServer(t)

	// Discover a failover subject through the default whatif run.
	status, body := post(t, ts.URL+"/run/whatif", "")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var run struct {
		Result struct {
			Report struct {
				Scenario struct {
					Events []json.RawMessage `json:"events"`
				} `json:"scenario"`
			} `json:"report"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatal(err)
	}
	if len(run.Result.Report.Scenario.Events) == 0 {
		t.Skip("no failover subject at this scale")
	}
	event, err := json.Marshal(run.Result.Report.Scenario)
	if err != nil {
		t.Fatal(err)
	}

	// Re-apply the same scenario via the dedicated endpoint.
	status, body = post(t, ts.URL+"/whatif", string(event))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var rep struct {
		Delta struct {
			Recomputed int `json:"Recomputed"`
		} `json:"Delta"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Delta.Recomputed == 0 {
		t.Fatalf("what-if recomputed nothing: %s", body)
	}

	// Both renderings of the same report; any other ?format= is refused
	// before the scenario is looked at, not answered as JSON.
	status, text := post(t, ts.URL+"/whatif?format=text", string(event))
	if status != http.StatusOK || !strings.Contains(string(text), "What-if") {
		t.Fatalf("format=text: %d %s", status, text)
	}
	if status, again := post(t, ts.URL+"/whatif?format=json", string(event)); status != http.StatusOK || !bytes.Equal(again, body) {
		t.Fatalf("format=json: %d, body differs from the default's", status)
	}
	status, refused := post(t, ts.URL+"/whatif?format=txt", string(event))
	var refusal struct {
		Error string `json:"error"`
	}
	if status != http.StatusUnprocessableEntity || json.Unmarshal(refused, &refusal) != nil ||
		!strings.Contains(refusal.Error, `"txt"`) {
		t.Fatalf("format=txt: %d %s", status, refused)
	}

	// Bad bodies rejected.
	if status, _ = post(t, ts.URL+"/whatif", `{"events": []}`); status != http.StatusUnprocessableEntity {
		t.Fatalf("empty scenario status %d", status)
	}
	if status, _ = post(t, ts.URL+"/whatif", `{"bogus": 1}`); status != http.StatusUnprocessableEntity {
		t.Fatalf("unknown field status %d", status)
	}
}

func TestSweepEndpoint(t *testing.T) {
	ts := testServer(t)

	// A capped single-link-failure sweep streams NDJSON: one record per
	// scenario, a final aggregate line, and the sweep_done trailer.
	status, body := post(t, ts.URL+"/sweep",
		`{"spec": {"generators": [{"kind": "all_single_link_failures", "max": 6}]}, "workers": 3}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 8 {
		t.Fatalf("want 6 records + aggregate + sweep_done, got %d lines: %s", len(lines), body)
	}
	for i, line := range lines[:6] {
		var rec struct {
			Index int    `json:"index"`
			Name  string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v in %s", i, err, line)
		}
		if rec.Index != i || !strings.HasPrefix(rec.Name, "link_fail:") {
			t.Fatalf("line %d out of order or misnamed: %s", i, line)
		}
	}
	var final struct {
		Aggregate struct {
			Scenarios int `json:"scenarios"`
		} `json:"aggregate"`
	}
	if err := json.Unmarshal([]byte(lines[6]), &final); err != nil {
		t.Fatalf("aggregate line: %v in %s", err, lines[6])
	}
	if final.Aggregate.Scenarios != 6 {
		t.Fatalf("aggregate scenarios = %d", final.Aggregate.Scenarios)
	}
	// The trailer is the completeness signal: scenarios and records must
	// cross-check, and its content is deterministic (byte-identity below
	// covers it too).
	var trailer struct {
		Done *struct {
			Scenarios int `json:"scenarios"`
			Records   int `json:"records"`
		} `json:"sweep_done"`
	}
	if err := json.Unmarshal([]byte(lines[7]), &trailer); err != nil || trailer.Done == nil {
		t.Fatalf("sweep_done trailer: %v in %s", err, lines[7])
	}
	if trailer.Done.Scenarios != 6 || trailer.Done.Records != 6 {
		t.Fatalf("trailer counts = %+v, want 6/6", trailer.Done)
	}

	// Identical request → byte-identical stream (deterministic across
	// requests, hence across worker placements).
	status, body2 := post(t, ts.URL+"/sweep",
		`{"spec": {"generators": [{"kind": "all_single_link_failures", "max": 6}]}, "workers": 8}`)
	if status != http.StatusOK || string(body2) != string(body) {
		t.Fatalf("sweep stream not deterministic across worker counts")
	}

	// Bad specs rejected before any stream output.
	if status, _ = post(t, ts.URL+"/sweep", `{"spec": {"generators": [{"kind": "nope"}]}}`); status != http.StatusUnprocessableEntity {
		t.Fatalf("bad generator status %d", status)
	}
	if status, _ = post(t, ts.URL+"/sweep", `{"bogus": 1}`); status != http.StatusUnprocessableEntity {
		t.Fatalf("unknown field status %d", status)
	}
	if status, _ = post(t, ts.URL+"/sweep", `{"spec": {}}`); status != http.StatusUnprocessableEntity {
		t.Fatalf("empty spec status %d", status)
	}
}

// TestSweepClientDisconnect proves a canceled request context stops an
// in-flight sweep (the satellite contract: a dead client cancels its
// work instead of burning the executor).
func TestSweepClientDisconnect(t *testing.T) {
	ts := testServer(t)
	// Warm so the sweep itself is the only slow part.
	if status, body := post(t, ts.URL+"/run/overview", ""); status != http.StatusOK {
		t.Fatalf("warm: %d %s", status, body)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sweep",
		strings.NewReader(`{"spec": {"generators": [{"kind": "all_single_link_failures"}]}, "workers": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read one record, then walk away.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first byte: %v", err)
	}
	cancel()
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Fatal("expected a truncated stream after cancellation")
	}
}

// TestConcurrentRequests hammers one server with a mixed multi-dataset
// workload — the production pattern the pool exists for. Run with
// -race.
func TestConcurrentRequests(t *testing.T) {
	ts := testServer(t)
	paths := []string{
		"/run/table2", "/run/table5", "/run/table7", "/run/case3",
		"/run/atoms", "/run/whatif", "/run/summary",
		"/run/table5?dataset=tiny", "/run/table8?dataset=imported",
	}
	var wg sync.WaitGroup
	errs := make(chan string, 2*len(paths))
	for round := 0; round < 2; round++ {
		for _, p := range paths {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				status, body := post(t, ts.URL+p, "")
				if status != http.StatusOK {
					errs <- fmt.Sprintf("%s: %d %s", p, status, body)
				}
			}(p)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(string(body), `"ok": true`) {
		t.Fatalf("healthz: %d %s", status, body)
	}
	var h struct {
		OK    bool `json:"ok"`
		Ready bool `json:"ready"`
		Pool  struct {
			Datasets int    `json:"datasets"`
			Default  string `json:"default"`
			Resident int    `json:"resident"`
			Capacity int    `json:"capacity"`
		} `json:"pool"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Pool.Datasets != 3 || h.Pool.Default != "default" || h.Pool.Capacity != 3 {
		t.Fatalf("pool stats: %s", body)
	}
	if h.Ready {
		t.Fatal("ready before any default-dataset query")
	}

	// A default-dataset query flips readiness and registers residency.
	if status, body := post(t, ts.URL+"/run/table5", ""); status != http.StatusOK {
		t.Fatalf("table5: %d %s", status, body)
	}
	_, body = get(t, ts.URL+"/healthz")
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if !h.Ready || h.Pool.Resident != 1 {
		t.Fatalf("after query: %s", body)
	}
}

func TestInferListEndpoint(t *testing.T) {
	ts := testServer(t)
	status, body := get(t, ts.URL+"/infer")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var infos []struct {
		Name          string          `json:"name"`
		Title         string          `json:"title"`
		Probabilistic bool            `json:"probabilistic"`
		Params        json.RawMessage `json:"params"`
	}
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	names := map[string]bool{}
	for _, info := range infos {
		names[info.Name] = true
		if info.Title == "" {
			t.Errorf("algorithm %s: no title", info.Name)
		}
	}
	for _, want := range []string{"gao", "rank", "pari"} {
		if !names[want] {
			t.Errorf("algorithm catalog missing %s", want)
		}
	}
}

func TestInferEndpoint(t *testing.T) {
	ts := testServer(t)

	// An unknown algorithm is a 422 before any dataset build: the pool
	// must still be empty afterwards.
	status, body := post(t, ts.URL+"/infer/nope", "")
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("bad algo: %d %s", status, body)
	}
	if _, hbody := get(t, ts.URL+"/healthz"); !strings.Contains(string(hbody), `"resident": 0`) {
		t.Fatalf("bad algo built a dataset: %s", hbody)
	}

	// Bad params: 422.
	if status, body := post(t, ts.URL+"/infer/gao", `{"bogus":1}`); status != http.StatusUnprocessableEntity {
		t.Fatalf("bad params: %d %s", status, body)
	}

	// A real run returns the annotated edge list; pari adds a posterior.
	status, body = post(t, ts.URL+"/infer/gao", "")
	if status != http.StatusOK {
		t.Fatalf("gao: %d %s", status, body)
	}
	var res struct {
		Algorithm     string   `json:"algorithm"`
		ASes          int      `json:"ases"`
		Edges         int      `json:"edges"`
		Relationships []string `json:"relationships"`
		Posterior     []struct {
			A   uint32  `json:"a"`
			B   uint32  `json:"b"`
			P2C float64 `json:"p2c"`
		} `json:"posterior"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if res.Algorithm != "gao" || res.Edges == 0 || len(res.Relationships) != res.Edges || len(res.Posterior) != 0 {
		t.Fatalf("gao response shape: %s", body)
	}
	if !strings.Contains(res.Relationships[0], "|") {
		t.Fatalf("relationship not in a|b|rel form: %q", res.Relationships[0])
	}

	status, body = post(t, ts.URL+"/infer/pari?dataset=imported", `{"smoothing":0.25}`)
	if status != http.StatusOK {
		t.Fatalf("pari on import: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Posterior) != res.Edges || res.Edges == 0 {
		t.Fatalf("pari posterior shape: %d edges, %d posterior rows", res.Edges, len(res.Posterior))
	}

	// Text format streams the CAIDA file body.
	resp, err := http.Post(ts.URL+"/infer/rank?format=text", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text format content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(text)), "\n")
	if len(lines) == 0 || strings.Count(lines[0], "|") != 2 {
		t.Fatalf("text body not a|b|rel:\n%s", text)
	}
}

func TestRunAlgoQueryShortcut(t *testing.T) {
	ts := testServer(t)

	status, body := post(t, ts.URL+"/run/inferbakeoff?algo=rank", "")
	if status != http.StatusOK {
		t.Fatalf("bakeoff?algo=rank: %d %s", status, body)
	}
	var wrapped struct {
		Result struct {
			Algorithms []struct {
				Name string `json:"name"`
			} `json:"algorithms"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &wrapped); err != nil {
		t.Fatal(err)
	}
	if len(wrapped.Result.Algorithms) != 1 || wrapped.Result.Algorithms[0].Name != "rank" {
		t.Fatalf("?algo= did not narrow the bakeoff: %s", body)
	}

	// The shortcut composes with a params body.
	status, body = post(t, ts.URL+"/run/inferbakeoff?algo=gao", `{"score":true}`)
	if status != http.StatusOK {
		t.Fatalf("scored bakeoff: %d %s", status, body)
	}
	if !strings.Contains(string(body), `"score"`) {
		t.Fatalf("score=true body ignored: %s", body)
	}

	// On an experiment that does not take an algorithm: 422.
	if status, body := post(t, ts.URL+"/run/table5?algo=gao", ""); status != http.StatusUnprocessableEntity {
		t.Fatalf("?algo= on table5: %d %s", status, body)
	}

	// An unknown algorithm via the shortcut surfaces as a 422 from the
	// experiment's own validation.
	if status, body := post(t, ts.URL+"/run/inferbakeoff?algo=nope", ""); status != http.StatusUnprocessableEntity {
		t.Fatalf("bad ?algo=: %d %s", status, body)
	}
}
