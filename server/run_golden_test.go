package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
	"github.com/policyscope/policyscope/obs"
)

var updateRunGolden = flag.Bool("update-run-golden", false,
	"rewrite testdata/run_golden.json from the responses of the code under test")

type runGoldenRequest struct{ name, body string }

// runGoldenBodies are the non-default parameter bodies the golden covers
// beyond every experiment's defaults: one per parameter type, plus the
// persistence shapes whose defaulting differs (explicit zero churn, churn
// unset, the hourly axis label).
var runGoldenBodies = []runGoldenRequest{
	{"table3", `{"min_date": 20010101, "min_neighbors": 2}`},
	{"table4", `{"max_ases": 3}`},
	{"table6", `{"providers": 2, "max_rows": 4, "min_prefixes": 1}`},
	{"table7", `{"providers": 1}`},
	{"figure2b", `{"routers": 6, "drift_routers": 1}`},
	{"figure9", `{"ases": 2, "max_ranks": 5}`},
	{"figure6", `{"epochs": 3, "churn_fraction": 0}`},
	{"figure6", `{"epochs": 3}`},
	{"figure7", `{"epochs": 3, "epoch_seconds": 3600}`},
	{"whatif", `{"max_rows": 2}`},
	{"sweep", `{"spec": {"generators": [{"kind": "all_single_link_failures", "max": 4}]}, "max_records": 2}`},
	{"inferbakeoff", `{"algos": ["gao", "rank"], "score": true}`},
	{"inferensemble", `{"samples": 2, "sweep_max": 4}`},
}

// resultMemoLookups scrapes the result memo's hit and miss counters.
func resultMemoLookups(t *testing.T, base string) (hit, miss float64) {
	t.Helper()
	_, body := get(t, base+"/metrics")
	samples, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hit, _ = obs.Find(samples, "policyscope_session_memo_total", `cache="result",result="hit"`)
	miss, _ = obs.Find(samples, "policyscope_session_memo_total", `cache="result",result="miss"`)
	return hit, miss
}

// TestRunGoldenDigests pins what every experiment answers, byte for
// byte, on the small preset: status and body of POST /run/{name} as JSON
// and as text, with default parameters for the whole catalog and one
// non-default body per parameter type, plus the text and JSON forms of a
// full RunAll battery. The committed digests were generated on the
// commit before the experiments became single registry literals, so that
// refactor is proven identical rather than spot-checked by name.
func TestRunGoldenDigests(t *testing.T) {
	pool := dataset.NewPool(dataset.Builtin(), 1)
	ts := httptest.NewServer(New(pool))
	defer ts.Close()

	var requests []runGoldenRequest
	for _, info := range policyscope.Experiments() {
		requests = append(requests, runGoldenRequest{name: info.Name})
	}
	requests = append(requests, runGoldenBodies...)
	got := map[string]string{}
	for _, req := range requests {
		hit0, miss0 := resultMemoLookups(t, ts.URL)
		for _, format := range []string{"json", "text"} {
			status, resp := post(t, ts.URL+"/run/"+req.name+"?dataset=small&format="+format, req.body)
			key := fmt.Sprintf("POST /run/%s %s format=%s", req.name, req.body, format)
			if status != http.StatusOK {
				t.Errorf("%s: status %d: %s", key, status, resp)
			}
			got[key] = bodyDigest(append([]byte(fmt.Sprintf("%d\n", status)), resp...))
		}
		// Both bodies of a read-only experiment come from one
		// computation; a scenario experiment is computed per request and
		// never consults the memo.
		hit, miss := resultMemoLookups(t, ts.URL)
		want := [2]float64{1, 1}
		if req.name == "whatif" || req.name == "sweep" {
			want = [2]float64{0, 0}
		}
		if (hit-hit0 != want[0]) || (miss-miss0 != want[1]) {
			t.Errorf("POST /run/%s %s as JSON then text: %v result-memo hits and %v misses, want %v and %v",
				req.name, req.body, hit-hit0, miss-miss0, want[0], want[1])
		}
	}

	sess, err := pool.Session(context.Background(), "small")
	if err != nil {
		t.Fatal(err)
	}
	opts := policyscope.RunAllOptions{
		TierOneProviders: 2, Table6Rows: 5, Table6MinPrefixes: 1,
		DailyEpochs: 3, HourlyEpochs: 2, Routers: 6, DriftRouters: 1, Figure9ASes: 2,
	}
	var text bytes.Buffer
	if err := sess.RunAll(context.Background(), &text, opts); err != nil {
		t.Fatal(err)
	}
	got["RunAll text"] = bodyDigest(text.Bytes())
	doc, err := sess.RunAllJSON(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	got["RunAllJSON"] = bodyDigest(raw)

	checkGoldenDigests(t, "testdata/run_golden.json", got, *updateRunGolden)
}
