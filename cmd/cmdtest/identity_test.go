package cmdtest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestCLICacheIdentity: the study cache is invisible in what the one-shot
// subcommands write. `sweep -records` (records file and stdout aggregate)
// and `simulate -scenario -out` (the post-event MRT snapshot) produce the
// same bytes without -cache-dir, with a cold -cache-dir (the run that
// converges and writes the entry) and with a warm one (the run whose
// engine is restored from it and converges nothing), on the small preset.
func TestCLICacheIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()

	// The small preset's topology, for a link that exists in it.
	relPath := filepath.Join(dir, "rel.txt")
	run(t, "topogen", "-ases", "200", "-seed", "42", "-rel", relPath, "-prefixes", filepath.Join(dir, "pfx.txt"))
	provider, customer := firstProviderEdge(t, relPath)
	scenarioPath := filepath.Join(dir, "events.json")
	events := fmt.Sprintf(`{"name":"identity","events":[{"kind":"link_fail","a":%s,"b":%s},`+
		`{"kind":"local_pref","as":%s,"neighbor":%s,"value":80}]}`, customer, provider, provider, customer)
	if err := os.WriteFile(scenarioPath, []byte(events), 0o644); err != nil {
		t.Fatal(err)
	}

	// One store per subcommand, so each has its own cold run.
	type output struct{ records, aggregate, snapshot []byte }
	var outs []output
	for i, cached := range []bool{false, true, true} {
		var sweepCache, simCache []string
		if cached {
			sweepCache = []string{"-cache-dir", filepath.Join(dir, "cache-sweep")}
			simCache = []string{"-cache-dir", filepath.Join(dir, "cache-simulate")}
		}
		recPath := filepath.Join(dir, fmt.Sprintf("records-%d.ndjson", i))
		mrtPath := filepath.Join(dir, fmt.Sprintf("after-%d.mrt", i))
		var o output
		o.aggregate = runStdout(t, "sweep", append(sweepCache, "-dataset", "small", "-max", "24", "-j", "2",
			"-quiet", "-records", recPath)...)
		var err error
		if o.records, err = os.ReadFile(recPath); err != nil {
			t.Fatal(err)
		}
		runStdout(t, "simulate", append(simCache, "-dataset", "small", "-scenario", scenarioPath, "-out", mrtPath)...)
		if o.snapshot, err = os.ReadFile(mrtPath); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, o)
		if i == 1 {
			for _, store := range []string{sweepCache[1], simCache[1]} {
				if entries, err := os.ReadDir(store); err != nil || len(entries) != 1 {
					t.Fatalf("the cold run left %d entries in %s (%v), want the small preset's one", len(entries), store, err)
				}
			}
		}
	}
	if len(outs[0].records) == 0 || len(outs[0].aggregate) == 0 || len(outs[0].snapshot) == 0 {
		t.Fatal("empty output")
	}
	for i, name := range []string{"cold -cache-dir", "warm -cache-dir"} {
		o := outs[i+1]
		if !bytes.Equal(o.records, outs[0].records) {
			t.Errorf("%s: sweep records differ from the run without a cache", name)
		}
		if !bytes.Equal(o.aggregate, outs[0].aggregate) {
			t.Errorf("%s: sweep aggregate differs from the run without a cache", name)
		}
		if !bytes.Equal(o.snapshot, outs[0].snapshot) {
			t.Errorf("%s: simulate -scenario snapshot differs from the run without a cache", name)
		}
	}
}
