package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
	"github.com/policyscope/policyscope/internal/dsweep"
	"github.com/policyscope/policyscope/internal/sweep"
)

const shardSpec = `{"generators": [{"kind": "all_single_link_failures", "max": 12}]}`

func TestSweepShardEndpoint(t *testing.T) {
	ts := testServer(t)

	status, body := post(t, ts.URL+"/sweep/shard?dataset=tiny",
		`{"spec": `+shardSpec+`, "start": 3, "end": 9, "seq": 41, "expect_total": 12, "workers": 2}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 7 {
		t.Fatalf("want 6 records + trailer, got %d lines: %s", len(lines), body)
	}
	for i, line := range lines[:6] {
		var rec struct {
			Index int    `json:"index"`
			Name  string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v in %s", i, err, line)
		}
		// Records carry *global* scenario indices, not shard-local ones.
		if rec.Index != 3+i || !strings.HasPrefix(rec.Name, "link_fail:") {
			t.Fatalf("line %d: want global index %d, got %s", i, 3+i, line)
		}
	}
	var trailer struct {
		ShardDone dsweep.ShardDone `json:"shard_done"`
	}
	if err := json.Unmarshal([]byte(lines[6]), &trailer); err != nil {
		t.Fatalf("trailer: %v in %s", err, lines[6])
	}
	d := trailer.ShardDone
	if d.Start != 3 || d.End != 9 || d.Seq != 41 || d.Records != 6 {
		t.Fatalf("trailer %+v does not echo the request", d)
	}
	if len(d.WorkerStats) == 0 {
		t.Fatal("trailer carries no worker stats")
	}

	// Identical request → byte-identical records. (Only the records:
	// the trailer's worker stats carry wall-clock busy times, which the
	// coordinator never merges into output.)
	status, body2 := post(t, ts.URL+"/sweep/shard?dataset=tiny",
		`{"spec": `+shardSpec+`, "start": 3, "end": 9, "seq": 41, "expect_total": 12, "workers": 2}`)
	lines2 := strings.Split(strings.TrimSpace(string(body2)), "\n")
	if status != http.StatusOK || len(lines2) != 7 ||
		strings.Join(lines2[:6], "\n") != strings.Join(lines[:6], "\n") {
		t.Fatal("shard records not deterministic across requests")
	}
}

func TestSweepShardRejections(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name, body, wantSub string
	}{
		{"bad generator", `{"spec": {"generators": [{"kind": "hijacks"}]}, "start": 0, "end": 1}`,
			`generator 0 (hijacks)`},
		{"inverted range", `{"spec": ` + shardSpec + `, "start": 5, "end": 2}`,
			"bad shard range"},
		{"range past expansion", `{"spec": ` + shardSpec + `, "start": 0, "end": 999}`,
			"exceeds"},
		{"expect_total mismatch", `{"spec": ` + shardSpec + `, "start": 0, "end": 1, "expect_total": 77}`,
			"scenario universe mismatch"},
		{"unknown field", `{"bogus": 1}`, "bad shard request"},
		{"vantage mismatch", `{"spec": ` + shardSpec + `, "start": 0, "end": 1, "vantages": "deadbeefdeadbeef"}`,
			"vantage set mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, ts.URL+"/sweep/shard?dataset=tiny", tc.body)
			if status != http.StatusUnprocessableEntity {
				t.Fatalf("status %d: %s", status, body)
			}
			if !strings.Contains(string(body), tc.wantSub) {
				t.Fatalf("error %s does not mention %q", body, tc.wantSub)
			}
		})
	}
}

// TestSweepValidationBeforeDataset pins the fail-fast ordering: an
// invalid spec is rejected with the generator named even when the
// request targets a dataset that does not exist — validation runs
// before any session or topology work.
func TestSweepValidationBeforeDataset(t *testing.T) {
	ts := testServer(t)
	badSpec := `"spec": {"generators": [{"kind": "local_pref_flips", "as": 1}]}`
	for path, body := range map[string]string{
		"/sweep":       `{` + badSpec + `}`,
		"/sweep/shard": `{` + badSpec + `, "start": 0, "end": 1}`,
	} {
		status, resp := post(t, ts.URL+path+"?dataset=no-such-dataset", body)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d (want 422 before dataset lookup): %s", path, status, resp)
		}
		if !strings.Contains(string(resp), `generator 0 (local_pref_flips)`) {
			t.Fatalf("%s: error %s does not name the generator", path, resp)
		}
	}
}

// TestSweepShardVantageGuard pins both sides of the vantage-set check:
// the fingerprint of the worker's own peers is accepted, and the
// fingerprint of a same-topology-different-peers dataset — the case
// the scenario-universe guard cannot see, since single-link-failure
// scenarios are defined by links, not vantages — is a 422.
func TestSweepShardVantageGuard(t *testing.T) {
	ts := testServer(t)
	tiny := policyscope.Config{NumASes: 120, Seed: 7, CollectorPeers: 8, LookingGlassASes: 5}
	_, peers, err := dataset.LoadTopology(context.Background(), dataset.NewSynthetic(tiny))
	if err != nil {
		t.Fatal(err)
	}
	good := dsweep.VantageFingerprint(peers)

	status, body := post(t, ts.URL+"/sweep/shard?dataset=tiny",
		`{"spec": `+shardSpec+`, "start": 0, "end": 2, "expect_total": 12, "vantages": "`+good+`"}`)
	if status != http.StatusOK {
		t.Fatalf("matching vantage fingerprint rejected: %d %s", status, body)
	}

	// The same topology observed from more collector peers: identical
	// link universe (expect_total passes), different records.
	morePeers := tiny
	morePeers.CollectorPeers = 12
	_, peers2, err := dataset.LoadTopology(context.Background(), dataset.NewSynthetic(morePeers))
	if err != nil {
		t.Fatal(err)
	}
	if dsweep.VantageFingerprint(peers2) == good {
		t.Fatal("test premise broken: different peer counts fingerprint identically")
	}
	status, body = post(t, ts.URL+"/sweep/shard?dataset=tiny",
		`{"spec": `+shardSpec+`, "start": 0, "end": 2, "expect_total": 12, "vantages": "`+dsweep.VantageFingerprint(peers2)+`"}`)
	if status != http.StatusUnprocessableEntity || !strings.Contains(string(body), "vantage set mismatch") {
		t.Fatalf("mismatched vantage fingerprint not refused: %d %s", status, body)
	}
}

// TestDistributedMatchesServerSweep is the end-to-end integration: a
// dsweep coordinator over two HTTP workers (sharing one Server, hence
// one dataset pool) reproduces the /sweep endpoint's record stream and
// aggregate byte for byte.
func TestDistributedMatchesServerSweep(t *testing.T) {
	tiny := policyscope.Config{NumASes: 120, Seed: 7, CollectorPeers: 8, LookingGlassASes: 5}
	cat := dataset.NewCatalog()
	if err := cat.Register("tiny", cachedSynthetic(tiny)); err != nil {
		t.Fatal(err)
	}
	srv := New(dataset.NewPool(cat, 2))
	w1 := httptest.NewServer(srv)
	defer w1.Close()
	w2 := httptest.NewServer(srv)
	defer w2.Close()

	// Reference: the single-stream /sweep endpoint.
	status, body := post(t, w1.URL+"/sweep?dataset=tiny",
		`{"spec": {"generators": [{"kind": "all_single_link_failures", "max": 24}]}, "workers": 2}`)
	if status != http.StatusOK {
		t.Fatalf("reference sweep: status %d: %s", status, body)
	}
	// The stream ends with the aggregate line and the sweep_done trailer;
	// the coordinator reproduces the records and the aggregate.
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	wantRecords := strings.Join(lines[:len(lines)-2], "\n") + "\n"
	wantAggLine := lines[len(lines)-2]

	// Coordinator side: expand the same spec from the same synthetic
	// source — exactly what policyscope sweep -workers does.
	spec := sweep.Spec{Generators: []sweep.Generator{{Kind: sweep.KindAllSingleLinkFailures, Max: 24}}}
	topo, _, err := dataset.LoadTopology(context.Background(), dataset.NewSynthetic(tiny))
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := sweep.Expand(context.Background(), topo, spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	agg, err := dsweep.Run(context.Background(), spec, scenarios, dsweep.Options{
		Workers:   []string{w1.URL, w2.URL},
		ShardSize: 5,
		Dataset:   "tiny",
		OnImpact:  func(imp *sweep.Impact) error { return enc.Encode(imp) },
	})
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if buf.String() != wantRecords {
		t.Fatalf("distributed records differ from /sweep stream\n got %d bytes\nwant %d bytes",
			buf.Len(), len(wantRecords))
	}
	gotAgg, err := json.Marshal(struct {
		Aggregate *sweep.Aggregate `json:"aggregate"`
	}{agg})
	if err != nil {
		t.Fatal(err)
	}
	if string(gotAgg) != wantAggLine {
		t.Fatalf("distributed aggregate differs:\n got %s\nwant %s", gotAgg, wantAggLine)
	}
}
