// Package cmdtest smoke-tests the policyscope command: it is built with
// the local toolchain and each subcommand is driven through a tiny
// end-to-end invocation (topogen → simulate → inferrel/inferexport, a
// scenario what-if, the looking glass, the IRR generator and the repro
// harness), so flag-parsing or wiring regressions in the main package
// are caught by `go test ./...` even though it has no importable API.
package cmdtest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// firstProviderEdge extracts one provider|customer edge from a CAIDA
// relationship file.
func firstProviderEdge(t *testing.T, relPath string) (string, string) {
	t.Helper()
	f, err := os.Open(relPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "|")
		if len(parts) == 3 && parts[2] == "-1" {
			return parts[0], parts[1]
		}
	}
	t.Fatal("no provider-customer edge in relationship file")
	return "", ""
}

func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()

	relPath := filepath.Join(dir, "rel.txt")
	pfxPath := filepath.Join(dir, "prefixes.txt")
	mrtPath := filepath.Join(dir, "base.mrt")
	afterPath := filepath.Join(dir, "after.mrt")
	irrPath := filepath.Join(dir, "irr.rpsl")
	inferredRel := filepath.Join(dir, "rel-inferred.txt")

	// topogen writes the ground truth the other CLIs consume.
	out := run(t, "topogen", "-ases", "40", "-seed", "3", "-rel", relPath, "-prefixes", pfxPath)
	if !strings.Contains(out, "ASes: 40") {
		t.Fatalf("topogen stats missing:\n%s", out)
	}
	for _, p := range []string{relPath, pfxPath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("topogen output %s empty or missing (%v)", p, err)
		}
	}

	// simulate produces the collector snapshot.
	out = run(t, "simulate", "-ases", "40", "-seed", "3", "-peers", "5", "-out", mrtPath)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("simulate output:\n%s", out)
	}

	// simulate -scenario: fail a real link from the same deterministic
	// topology and verify the incremental what-if report.
	provider, customer := firstProviderEdge(t, relPath)
	scenarioPath := filepath.Join(dir, "events.json")
	events := fmt.Sprintf(`{"name":"smoke","events":[{"kind":"link_fail","a":%s,"b":%s}]}`, provider, customer)
	if err := os.WriteFile(scenarioPath, []byte(events), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(t, "simulate", "-ases", "40", "-seed", "3", "-peers", "5",
		"-scenario", scenarioPath, "-out", afterPath)
	if !strings.Contains(out, "scenario smoke") || !strings.Contains(out, "re-converged") {
		t.Fatalf("simulate -scenario report missing:\n%s", out)
	}

	// sweep: a capped single-link-failure fleet over the same topology,
	// records to a file, rendered aggregate to stdout.
	recPath := filepath.Join(dir, "records.ndjson")
	out = run(t, "sweep", "-ases", "40", "-seed", "3", "-peers", "5",
		"-j", "2", "-max", "5", "-quiet", "-records", recPath, "-format", "text")
	if !strings.Contains(out, "Most critical") || !strings.Contains(out, "scenarios=5 workers=2") {
		t.Fatalf("sweep output missing aggregate or summary line:\n%s", out)
	}
	recData, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	recLines := strings.Split(strings.TrimSpace(string(recData)), "\n")
	if len(recLines) != 6 {
		t.Fatalf("sweep wrote %d lines, want 5 records + sweep_done trailer:\n%s", len(recLines), recData)
	}
	var rec struct {
		Index int    `json:"index"`
		Name  string `json:"name"`
	}
	if err := json.Unmarshal([]byte(recLines[4]), &rec); err != nil || rec.Index != 4 {
		t.Fatalf("sweep record 4 malformed (%v): %s", err, recLines[4])
	}
	var trailer struct {
		Done *struct {
			Scenarios int `json:"scenarios"`
			Records   int `json:"records"`
		} `json:"sweep_done"`
	}
	if err := json.Unmarshal([]byte(recLines[5]), &trailer); err != nil || trailer.Done == nil ||
		trailer.Done.Scenarios != 5 || trailer.Done.Records != 5 {
		t.Fatalf("sweep_done trailer malformed (%v): %s", err, recLines[5])
	}

	// inferrel recovers relationships from the snapshot and scores them.
	out = run(t, "inferrel", "-in", mrtPath, "-out", inferredRel, "-truth", relPath)
	if !strings.Contains(out, "inferred") {
		t.Fatalf("inferrel output:\n%s", out)
	}

	// The registry surface: -list names every algorithm, -algo selects
	// one with -p parameter overrides, -score prints the per-class
	// scorecard, and an unknown algorithm fails before touching input.
	out = run(t, "inferrel", "-list")
	for _, name := range []string{"gao", "rank", "pari"} {
		if !strings.Contains(out, name) {
			t.Fatalf("inferrel -list missing %s:\n%s", name, out)
		}
	}
	out = run(t, "inferrel", "-in", mrtPath, "-algo", "rank", "-p", "peer_ratio=6",
		"-out", filepath.Join(dir, "rel-rank.txt"), "-truth", relPath, "-score")
	if !strings.Contains(out, "rank: inferred") || !strings.Contains(out, "precision") {
		t.Fatalf("inferrel -algo rank -score output:\n%s", out)
	}
	posteriorPath := filepath.Join(dir, "posterior.json")
	run(t, "inferrel", "-in", mrtPath, "-algo", "pari", "-posterior", "-out", posteriorPath)
	postData, err := os.ReadFile(posteriorPath)
	if err != nil {
		t.Fatal(err)
	}
	var posterior []map[string]any
	if err := json.Unmarshal(postData, &posterior); err != nil || len(posterior) == 0 {
		t.Fatalf("inferrel -posterior wrote bad JSON (%v):\n%s", err, postData)
	}
	badAlgo := command("inferrel", "-in", mrtPath, "-algo", "nope")
	if out, err := badAlgo.CombinedOutput(); err == nil || !strings.Contains(string(out), "unknown algorithm") {
		t.Fatalf("inferrel -algo nope: err=%v out=%s", err, out)
	}

	// inferexport runs the Figure-4 SA detector.
	out = run(t, "inferexport", "-in", mrtPath, "-rel", relPath)
	if !strings.Contains(out, "SA prefixes per collector peer") {
		t.Fatalf("inferexport output:\n%s", out)
	}

	// irrgen emits an RPSL database and re-analyzes it.
	run(t, "irrgen", "-ases", "40", "-seed", "3", "-out", irrPath)
	if fi, err := os.Stat(irrPath); err != nil || fi.Size() == 0 {
		t.Fatalf("irrgen wrote nothing (%v)", err)
	}
	out = run(t, "irrgen", "-analyze", irrPath, "-rel", relPath, "-minneighbors", "1")
	if len(strings.TrimSpace(out)) == 0 {
		t.Fatal("irrgen -analyze printed nothing")
	}

	// lookingglass lists its vantage ASes.
	out = run(t, "lookingglass", "-ases", "40", "-seed", "3")
	if !strings.Contains(out, "available vantage ASes") {
		t.Fatalf("lookingglass output:\n%s", out)
	}
}

// TestDatasetCLISmoke drives the dataset plumbing end to end across
// CLIs: simulate exports an MRT snapshot, a manifest names it, repro
// imports it (snapshot-capable experiment runs; a ground-truth one
// reports why it cannot), and the study cache accelerates a repeat run.
func TestDatasetCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()

	// Export a snapshot, catalog it in a manifest.
	mrtPath := filepath.Join(dir, "snap.mrt")
	run(t, "simulate", "-ases", "60", "-seed", "3", "-peers", "6", "-out", mrtPath)
	manifestPath := filepath.Join(dir, "datasets.json")
	manifest := `{"datasets": [{"name": "imported", "mrt": "snap.mrt"}]}`
	if err := os.WriteFile(manifestPath, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	// The imported snapshot answers the SA detector...
	out := run(t, "repro", "-manifest", manifestPath, "-dataset", "imported", "-run", "table5")
	if !strings.Contains(out, "Table 5") {
		t.Fatalf("repro over MRT dataset:\n%s", out)
	}
	// ...and refuses ground-truth experiments with the typed reason.
	out = runFail(t, "repro", "-manifest", manifestPath, "-dataset", "imported", "-run", "table1")
	if !strings.Contains(out, "ground truth") {
		t.Fatalf("repro GT experiment over MRT dataset:\n%s", out)
	}
	// An unknown dataset fails before any work.
	out = runFail(t, "repro", "-dataset", "nope", "-run", "table5")
	if !strings.Contains(out, "unknown dataset") {
		t.Fatalf("repro unknown dataset:\n%s", out)
	}
	// So do an unknown experiment and a bad parameter — at the default
	// 2000-AS config, where a pre-validation regression would stall for
	// minutes building the study first.
	out = runFail(t, "repro", "-run", "nope")
	if !strings.Contains(out, "unknown experiment") {
		t.Fatalf("repro unknown experiment:\n%s", out)
	}
	out = runFail(t, "repro", "-run", "table6", "-p", "bogus=1")
	if !strings.Contains(out, "unknown parameter") {
		t.Fatalf("repro bad param:\n%s", out)
	}

	// The cache: a cold run populates the store (its own directory, so
	// the first run is the cold one), the warm run hits it.
	coldCache := filepath.Join(dir, "cache")
	args := []string{"-ases", "150", "-seed", "4", "-peers", "8", "-lg", "4",
		"-cache-dir", coldCache, "-run", "table5", "-format", "json"}
	coldOut := run(t, "repro", args...)
	entries, err := os.ReadDir(coldCache)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cache dir not populated (%v)", err)
	}
	warmOut := run(t, "repro", args...)
	stripTimings := func(s string) string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			// slog progress lines carry timestamps and elapsed times that
			// differ between the cold and warm run; only the experiment
			// bytes on stdout must match.
			if strings.Contains(line, "msg=") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	if stripTimings(coldOut) != stripTimings(warmOut) {
		t.Fatalf("cache hit changed experiment bytes:\ncold: %s\nwarm: %s", coldOut, warmOut)
	}
}

// writeRelHierarchy synthesizes a deterministic CAIDA as-rel file with
// n ASes: a 5-AS tier-1 peering clique, n/20 dual-homed tier-2 transit
// ASes, and dual-homed tier-3 edges for the rest.
func writeRelHierarchy(t *testing.T, path string, n int) {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("# synthesized as-rel hierarchy\n")
	const t1 = 5
	t2 := n / 20
	for i := 1; i <= t1; i++ {
		for j := i + 1; j <= t1; j++ {
			fmt.Fprintf(&b, "%d|%d|0\n", i, j)
		}
	}
	for i := 0; i < t2; i++ {
		asn := t1 + 1 + i
		fmt.Fprintf(&b, "%d|%d|-1\n", 1+i%t1, asn)
		fmt.Fprintf(&b, "%d|%d|-1\n", 1+(i+1)%t1, asn)
	}
	for asn := t1 + t2 + 1; asn <= n; asn++ {
		i := asn - t1 - t2 - 1
		fmt.Fprintf(&b, "%d|%d|-1\n", t1+1+i%t2, asn)
		fmt.Fprintf(&b, "%d|%d|-1\n", t1+1+(i*7+3)%t2, asn)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReproCAIDASmoke is the internet-scale acceptance path: a 20k-AS
// CAIDA-format relationships file — 33x the paper preset — loads
// through "-dataset caida:<path>", converges end to end, and answers an
// experiment; a second run resolves the whole dataset from the study
// cache (the entry embeds the graph, so the hit is self-contained).
func TestReproCAIDASmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and converges a 20k-AS graph; skipped in -short mode")
	}
	dir := t.TempDir()
	relPath := filepath.Join(dir, "as-rel-20k.txt")
	writeRelHierarchy(t, relPath, 20000)

	// Its own cache directory: the first run must be the cold one.
	coldCache := filepath.Join(dir, "cache")
	args := []string{"-dataset", "caida:" + relPath, "-cache-dir", coldCache, "-run", "table5"}
	out := run(t, "repro", args...)
	if !strings.Contains(out, "Table 5") {
		t.Fatalf("repro over 20k-AS CAIDA graph:\n%s", out)
	}
	entries, err := os.ReadDir(coldCache)
	if err != nil || len(entries) == 0 {
		t.Fatalf("CAIDA study cache not populated (%v)", err)
	}
	// The warm run must still answer (and identically), now from disk.
	warm := run(t, "repro", args...)
	if !strings.Contains(warm, "Table 5") {
		t.Fatalf("warm repro over CAIDA cache:\n%s", warm)
	}
}

// TestReproSmoke runs the complete experiment harness (including the
// appended what-if) at a small scale. Kept separate: it is the slowest
// CLI invocation.
func TestReproSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dataset := []string{"-ases", "300", "-seed", "1", "-peers", "12", "-lg", "6", "-cache-dir", cacheDir}
	out := run(t, "repro", append(dataset, "-daily", "0", "-hourly", "0", "-routers", "6")...)
	for _, want := range []string{"Table 5", "Summary: paper vs measured", "What-if"} {
		if !strings.Contains(out, want) {
			t.Fatalf("repro output missing %q", want)
		}
	}

	// Single-experiment mode with parameter overrides.
	out = run(t, "repro", append(dataset, "-run", "table6", "-p", "providers=2", "-p", "max_rows=3")...)
	if !strings.Contains(out, "Table 6") {
		t.Fatalf("repro -run table6 output:\n%s", out)
	}
}

// TestReproJSONByteStable is the acceptance bar for the JSON surface:
// two runs at a fixed seed must emit byte-identical documents — the
// first converging the dataset, the second restoring it from the cache.
func TestReproJSONByteStable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	args := []string{"-ases", "250", "-seed", "3", "-peers", "10", "-lg", "5", "-cache-dir", cacheDir,
		"-daily", "2", "-hourly", "0", "-routers", "4", "-format", "json"}
	a, b := runStdout(t, "repro", args...), runStdout(t, "repro", args...)
	if !bytes.Equal(a, b) {
		t.Fatal("repro -format json is not byte-stable across runs at a fixed seed")
	}
	var doc struct {
		Experiments []struct {
			Name string `json:"name"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(doc.Experiments) < 20 {
		t.Fatalf("only %d experiments in the sweep", len(doc.Experiments))
	}
}

// tinyDataset is the flag-derived dataset the daemon and fleet tests
// share; workerDataset is the same universe as a serve worker
// spells it.
var (
	tinyDataset   = []string{"-ases", "60", "-seed", "3", "-peers", "5"}
	workerDataset = append(tinyDataset[:len(tinyDataset):len(tinyDataset)], "-lg", "3")
)

// TestServerInferSmoke drives the serve /infer surface end to
// end: the algorithm catalog, a real inference run, and the
// fail-before-work contract (bad algo → 422 with no dataset built).
func TestServerInferSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	base := "http://" + startDaemon(t, append(workerDataset, "-cache-dir", cacheDir)...).addr

	// Bad algorithm: 422 before any dataset is built.
	resp, err := http.Post(base+"/infer/nope", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 422 || !strings.Contains(string(body), "unknown algorithm") {
		t.Fatalf("/infer/nope: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"resident": 0`) {
		t.Fatalf("bad algo built a dataset: %s", body)
	}

	// The algorithm catalog.
	resp, err = http.Get(base + "/infer")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"gao", "rank", "pari"} {
		if !strings.Contains(string(body), `"`+name+`"`) {
			t.Fatalf("GET /infer missing %s: %s", name, body)
		}
	}

	// A real run pays for the dataset build and returns the edge list.
	resp, err = http.Post(base+"/infer/rank", "application/json", strings.NewReader(`{"peer_ratio":6}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var res struct {
		Algorithm     string   `json:"algorithm"`
		Edges         int      `json:"edges"`
		Relationships []string `json:"relationships"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if resp.StatusCode != 200 || res.Algorithm != "rank" || res.Edges == 0 || len(res.Relationships) != res.Edges {
		t.Fatalf("/infer/rank: %d %s", resp.StatusCode, body)
	}
}

// TestGracefulShutdownSmoke sends SIGTERM to a live serve daemon while
// it is mid-way through streaming a /sweep response. The drain contract:
// the in-flight stream runs to completion (records, aggregate, and the
// sweep_done trailer all arrive), and the daemon exits 0.
func TestGracefulShutdownSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	srv := startDaemon(t, append(workerDataset, "-cache-dir", cacheDir, "-drain-timeout", "30s")...)

	// Open the sweep stream, read the first record, then SIGTERM the
	// daemon while the stream is still going.
	resp, err := http.Post("http://"+srv.addr+"/sweep", "application/json",
		strings.NewReader(`{"spec": {"generators": [{"kind": "all_single_link_failures", "max": 40}]}, "workers": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("/sweep: %d %s", resp.StatusCode, body)
	}
	reader := bufio.NewReader(resp.Body)
	first, err := reader.ReadString('\n')
	if err != nil {
		t.Fatalf("reading first sweep record: %v", err)
	}
	if err := srv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The in-flight stream must complete through the drain.
	rest, err := io.ReadAll(reader)
	if err != nil {
		t.Fatalf("stream cut during drain: %v\n%s", err, srv.log.String())
	}
	lines := strings.Split(strings.TrimSpace(first+string(rest)), "\n")
	if len(lines) != 42 { // 40 records + aggregate + sweep_done
		t.Fatalf("drained stream has %d lines, want 42:\n%s", len(lines), srv.log.String())
	}
	if !strings.Contains(lines[41], `"sweep_done"`) {
		t.Fatalf("drained stream missing sweep_done trailer: %s", lines[41])
	}

	// And the daemon exits cleanly.
	done := make(chan error, 1)
	go func() { done <- srv.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited non-zero after drain: %v\n%s", err, srv.log.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never exited after SIGTERM\n%s", srv.log.String())
	}
	if !strings.Contains(srv.log.String(), "drained") {
		t.Fatalf("daemon log missing drain record:\n%s", srv.log.String())
	}
}

// TestDistributedSweepSmoke drives the fleet path through real
// processes: two serve workers and a sweep coordinator, compared
// byte for byte against the same sweep run locally, then resumed from
// its checkpoint. Workers and the local run share the study cache, so
// the comparison is also restored engine against converged engine.
func TestDistributedSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()

	// Two workers over the same flag-derived dataset as the coordinator.
	var addrs []string
	for i := 0; i < 2; i++ {
		addrs = append(addrs, startDaemon(t, append(workerDataset, "-cache-dir", cacheDir)...).addr)
	}

	cfgArgs := append(tinyDataset[:len(tinyDataset):len(tinyDataset)], "-cache-dir", cacheDir,
		"-gen", "all_single_link_failures", "-max", "15", "-quiet")
	localOut := filepath.Join(dir, "local.ndjson")
	run(t, "sweep", append(cfgArgs, "-records", localOut)...)

	distOut := filepath.Join(dir, "dist.ndjson")
	cpDir := filepath.Join(dir, "checkpoint")
	distArgs := append(cfgArgs, "-records", distOut,
		"-workers", addrs[0]+","+addrs[1], "-shard-size", "4", "-checkpoint", cpDir)
	out := run(t, "sweep", distArgs...)
	if !strings.Contains(out, "workers=1") && !strings.Contains(out, "workers=2") {
		t.Fatalf("sweep done line does not count the workers that delivered shards:\n%s", out)
	}

	local, err := os.ReadFile(localOut)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := os.ReadFile(distOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(local) == 0 || !bytes.Equal(local, dist) {
		t.Fatalf("distributed records differ from local run (%d vs %d bytes)", len(dist), len(local))
	}

	// Reusing the checkpoint without -resume is refused; with -resume
	// the finished run replays entirely from the spool, byte-identical.
	out = runFail(t, "sweep", distArgs...)
	if !strings.Contains(out, "-resume") {
		t.Fatalf("checkpoint reuse not refused: %s", out)
	}
	out = run(t, "sweep", append(distArgs, "-resume")...)
	if !strings.Contains(out, "resumed from checkpoint") {
		t.Fatalf("resume did not replay from checkpoint: %s", out)
	}
	resumed, err := os.ReadFile(distOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, resumed) {
		t.Fatal("resumed records differ from local run")
	}
}

// TestFleetSweepSmoke drives dynamic fleet membership through real
// processes: a sweep coordinator starts with -fleet-addr and no
// static workers at all; a serve worker started afterwards self-registers via
// -coordinator heartbeats, runs every shard, and the records still match
// the local run byte for byte.
func TestFleetSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()

	cfgArgs := append(tinyDataset[:len(tinyDataset):len(tinyDataset)], "-cache-dir", cacheDir,
		"-gen", "all_single_link_failures", "-max", "15", "-quiet")
	localOut := filepath.Join(dir, "local.ndjson")
	run(t, "sweep", append(cfgArgs, "-records", localOut)...)

	fleetAddr := freeAddr(t)
	distOut := filepath.Join(dir, "dist.ndjson")
	coord := command("sweep", append(cfgArgs, "-records", distOut,
		"-fleet-addr", fleetAddr, "-shard-size", "4", "-grace", "60s")...)
	var coordLog bytes.Buffer
	coord.Stdout = &coordLog
	coord.Stderr = &coordLog
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		coord.Process.Kill()
		coord.Wait()
	})

	worker := startDaemon(t, append(workerDataset, "-cache-dir", cacheDir,
		"-coordinator", "http://"+fleetAddr, "-heartbeat", "200ms")...)

	done := make(chan error, 1)
	go func() { done <- coord.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fleet coordinator failed: %v\ncoordinator: %s\nworker: %s", err, coordLog.String(), worker.log.String())
		}
	case <-time.After(90 * time.Second):
		t.Fatalf("fleet coordinator never finished\ncoordinator: %s\nworker: %s", coordLog.String(), worker.log.String())
	}

	local, err := os.ReadFile(localOut)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := os.ReadFile(distOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(local) == 0 || !bytes.Equal(local, dist) {
		t.Fatalf("fleet records differ from local run (%d vs %d bytes)", len(dist), len(local))
	}
	if !strings.Contains(coordLog.String(), "worker joined dispatch") {
		t.Fatalf("coordinator never admitted the registered worker:\n%s", coordLog.String())
	}
	// A registered fleet has no static seed list; the summary line counts
	// the workers that delivered shards.
	if !strings.Contains(coordLog.String(), "scenarios=15 workers=1") {
		t.Fatalf("sweep done line does not count the registered worker:\n%s", coordLog.String())
	}
}
