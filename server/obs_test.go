package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"github.com/policyscope/policyscope/obs"
)

// TestMetricsEndpoint drives one request through every layer (dataset
// build, converge, experiment, HTTP) and checks that /metrics then
// exposes samples from each metric family the stack registers.
func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	if status, body := post(t, ts.URL+"/run/table5", ""); status != http.StatusOK {
		t.Fatalf("priming run: status %d: %s", status, body)
	}
	// One scenario apply (the registry's failover what-if), so the
	// per-Apply histograms have a sample.
	if status, body := post(t, ts.URL+"/run/whatif", ""); status != http.StatusOK {
		t.Fatalf("priming what-if: status %d: %s", status, body)
	}
	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	samples, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("parsing exposition: %v", err)
	}
	// One representative metric per instrumented layer.
	for _, want := range []string{
		"policyscope_converge_runs_total",           // engine
		"policyscope_pool_misses_total",             // dataset pool
		"policyscope_session_experiment_runs_total", // session
		"policyscope_http_requests_total",           // HTTP middleware
		"policyscope_pool_resident",                 // server gauge func
		"policyscope_converge_seconds_count",        // histogram family
	} {
		if _, ok := obs.Find(samples, want, ""); !ok {
			t.Errorf("no %s sample in /metrics", want)
		}
	}
	// What a slow apply is made of: one observation per Engine.Apply.
	for _, want := range []string{
		"policyscope_scenario_disturbed_prefixes_count",
		"policyscope_scenario_vantage_entries_rewritten_count",
	} {
		if v, ok := obs.Find(samples, want, ""); !ok || v < 1 {
			t.Errorf("%s missing or zero after a what-if (%v, %v)", want, v, ok)
		}
	}
	// The run endpoint's counter must have advanced with the right label.
	if v, ok := obs.Find(samples, "policyscope_http_requests_total", `endpoint="run"`); !ok || v < 1 {
		t.Errorf("policyscope_http_requests_total{endpoint=%q} missing or zero (%v, %v)", "run", v, ok)
	}
}

// TestTraceNDJSON: ?trace=1 appends a span waterfall after the body and
// flips the Content-Type to NDJSON; phases include dataset_load and the
// experiment span added by Session.Run.
func TestTraceNDJSON(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/run/table5?trace=1", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", got)
	}
	reqID := resp.Header.Get("X-Request-ID")
	if reqID == "" {
		t.Error("no X-Request-ID header")
	}

	// The body is the JSON result followed by NDJSON span lines; the
	// span lines are exactly those mentioning "trace".
	var names []string
	var summary struct {
		Trace   string  `json:"trace"`
		TotalMs float64 `json:"total_ms"`
		Spans   int     `json:"spans"`
	}
	sawSummary := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.Contains(line, []byte(`"trace"`)) {
			continue
		}
		var span struct {
			Trace string `json:"trace"`
			Name  string `json:"name"`
		}
		if err := json.Unmarshal(line, &span); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		if span.Trace != reqID {
			t.Errorf("span trace %q != request ID %q", span.Trace, reqID)
		}
		if span.Name != "" {
			names = append(names, span.Name)
		} else if err := json.Unmarshal(line, &summary); err == nil && summary.Spans > 0 {
			sawSummary = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(names, ",")
	for _, phase := range []string{"dataset_load", "experiment:table5", "render"} {
		if !strings.Contains(joined, phase) {
			t.Errorf("no %q span in trace (got %s)", phase, joined)
		}
	}
	if !sawSummary {
		t.Error("no trace summary line")
	}
	if sawSummary && summary.Spans != len(names) {
		t.Errorf("summary says %d spans, saw %d", summary.Spans, len(names))
	}
}

// TestTraceExplainsMemoHit: the experiment span says whether the answer
// was computed or found, so a trace accounts for a sub-millisecond run.
func TestTraceExplainsMemoHit(t *testing.T) {
	ts := testServer(t)
	for _, want := range []string{"memo miss", "memo hit"} {
		_, body := post(t, ts.URL+"/run/table5?trace=1", "")
		note := ""
		for _, line := range bytes.Split(body, []byte("\n")) {
			var span struct{ Name, Note string }
			if bytes.Contains(line, []byte(`"trace"`)) && json.Unmarshal(line, &span) == nil &&
				span.Name == "experiment:table5" {
				note = span.Note
			}
		}
		if note != want {
			t.Fatalf("experiment span note %q, want %q", note, want)
		}
	}
}

// TestTraceOffByDefault: without ?trace=1 the body stays plain JSON
// with no span lines.
func TestTraceOffByDefault(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/run/table5", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", got)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID header")
	}
}

// TestSweepTrace: the sweep stream keeps its record lines and gains
// warm/expand/sweep spans at the end.
func TestSweepTrace(t *testing.T) {
	ts := testServer(t)
	body := `{"spec": {"generators": [{"kind": "all_single_link_failures", "max": 4}]}}`
	status, out := post(t, ts.URL+"/sweep?trace=1&dataset=tiny", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out)
	}
	text := string(out)
	for _, phase := range []string{`"dataset_load"`, `"warm"`, `"expand"`, `"sweep"`} {
		if !strings.Contains(text, phase) {
			t.Errorf("no %s span in sweep trace", phase)
		}
	}
	if !strings.Contains(text, `"aggregate"`) {
		t.Error("sweep stream lost its aggregate line")
	}
}

// TestHealthzEnriched: healthz reports uptime and, once a dataset is
// resident, per-entry readiness and age.
func TestHealthzEnriched(t *testing.T) {
	ts := testServer(t)
	if status, body := post(t, ts.URL+"/run/table5?dataset=tiny", ""); status != http.StatusOK {
		t.Fatalf("priming run: status %d: %s", status, body)
	}
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var hz struct {
		OK            bool    `json:"ok"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Pool          struct {
			Entries []struct {
				Name         string  `json:"name"`
				Ready        bool    `json:"ready"`
				AgeSeconds   float64 `json:"age_seconds"`
				BuildSeconds float64 `json:"build_seconds"`
			} `json:"entries"`
		} `json:"pool"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if !hz.OK {
		t.Error("not ok")
	}
	if hz.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", hz.UptimeSeconds)
	}
	var tiny bool
	for _, e := range hz.Pool.Entries {
		if e.Name == "tiny" {
			tiny = true
			if !e.Ready {
				t.Error("tiny entry not ready after a successful run")
			}
			if e.BuildSeconds <= 0 {
				t.Errorf("tiny build_seconds = %v, want > 0", e.BuildSeconds)
			}
		}
	}
	if !tiny {
		t.Errorf("no pool entry for tiny in %s", body)
	}
}
