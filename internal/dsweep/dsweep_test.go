package dsweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/sweep"
	"github.com/policyscope/policyscope/internal/topogen"
)

// testRef is the shared single-process reference: one small topology,
// its link-failure sweep expansion, and the records + aggregate a
// single-process executor produces. Built once — the distributed tests
// all compare against it.
var (
	refOnce sync.Once
	refErr  error
	ref     struct {
		spec      sweep.Spec
		scenarios []simulate.Scenario
		impacts   []*sweep.Impact
		agg       *sweep.Aggregate
	}
)

func refSweep(t *testing.T) {
	t.Helper()
	refOnce.Do(func() {
		topo, err := topogen.Generate(topogen.DefaultConfig(60, 5))
		if err != nil {
			refErr = err
			return
		}
		vantage := make([]bgp.ASN, 0, 8)
		for i, asn := range topo.Order {
			if i%11 == 0 && len(vantage) < 8 {
				vantage = append(vantage, asn)
			}
		}
		eng, err := simulate.NewEngine(topo, simulate.Options{VantagePoints: vantage})
		if err != nil {
			refErr = err
			return
		}
		ref.spec = sweep.Spec{
			Name:       "links",
			Generators: []sweep.Generator{{Kind: sweep.KindAllSingleLinkFailures}},
		}
		ref.scenarios, err = sweep.Expand(context.Background(), topo, ref.spec)
		if err != nil {
			refErr = err
			return
		}
		ref.agg, refErr = sweep.Run(context.Background(), eng, ref.scenarios, sweep.Options{
			Workers: 2,
			OnImpact: func(imp *sweep.Impact) error {
				ref.impacts = append(ref.impacts, imp)
				return nil
			},
		})
	})
	if refErr != nil {
		t.Fatalf("building reference sweep: %v", refErr)
	}
}

// refNDJSON renders the reference records the way cmd/sweep -records
// writes them — the byte stream distributed runs must reproduce.
func refNDJSON(t *testing.T) string {
	t.Helper()
	refSweep(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, imp := range ref.impacts {
		if err := enc.Encode(imp); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// fakeWorker is an httptest-backed shard worker serving slices of the
// reference record set, with injectable failure modes.
type fakeWorker struct {
	t *testing.T

	mu sync.Mutex
	// requests counts shard attempts received; servedStarts records the
	// Start of every shard fully served (trailer written).
	requests    int
	servedStart []int
	// dieAfter > 0 aborts the connection after that many records, every
	// request. failStatus != 0 responds with that status instead of a
	// stream, for the first failTimes requests (0 = always). delay > 0
	// sleeps before each record — a slowed worker for straggler tests.
	dieAfter   int
	failStatus int
	failTimes  int
	delay      time.Duration
	// waitFor, when set, holds every request until it is closed;
	// onRequest, when set, runs as each request arrives. Together they
	// order one worker's first request before another's first answer.
	waitFor   <-chan struct{}
	onRequest func()
}

func (f *fakeWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	refSweep(f.t)
	if r.URL.Path != "/sweep/shard" {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	var req ShardRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	f.mu.Lock()
	f.requests++
	n := f.requests
	f.mu.Unlock()
	if f.onRequest != nil {
		f.onRequest()
	}
	if f.waitFor != nil {
		select {
		case <-f.waitFor:
		case <-r.Context().Done():
			return
		}
	}
	if f.failStatus != 0 && (f.failTimes == 0 || n <= f.failTimes) {
		http.Error(w, "injected failure", f.failStatus)
		return
	}
	if req.ExpectTotal > 0 && req.ExpectTotal != len(ref.scenarios) {
		http.Error(w, "scenario universe mismatch", http.StatusUnprocessableEntity)
		return
	}
	if err := req.ValidateRange(len(ref.scenarios)); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	written := 0
	for i := req.Start; i < req.End; i++ {
		if f.dieAfter > 0 && written >= f.dieAfter {
			panic(http.ErrAbortHandler) // drop the connection mid-stream
		}
		if f.delay > 0 {
			select {
			case <-time.After(f.delay):
			case <-r.Context().Done():
				return
			}
		}
		if err := enc.Encode(ref.impacts[i]); err != nil {
			return
		}
		written++
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(struct {
		ShardDone ShardDone `json:"shard_done"`
	}{ShardDone{Start: req.Start, End: req.End, Seq: req.Seq, Records: written}})
	f.mu.Lock()
	f.servedStart = append(f.servedStart, req.Start)
	f.mu.Unlock()
}

func (f *fakeWorker) served() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.servedStart...)
}

// startWorkers spins up n fake workers and returns them plus their
// addresses.
func startWorkers(t *testing.T, workers ...*fakeWorker) []string {
	t.Helper()
	addrs := make([]string, len(workers))
	for i, f := range workers {
		ts := httptest.NewServer(f)
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	return addrs
}

// collectRun executes a distributed run and returns the NDJSON record
// bytes plus the aggregate.
func collectRun(t *testing.T, opts Options) (string, *sweep.Aggregate, error) {
	t.Helper()
	refSweep(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	prev := opts.OnImpact
	opts.OnImpact = func(imp *sweep.Impact) error {
		if prev != nil {
			if err := prev(imp); err != nil {
				return err
			}
		}
		return enc.Encode(imp)
	}
	agg, err := Run(context.Background(), ref.spec, ref.scenarios, opts)
	return buf.String(), agg, err
}

func TestPartition(t *testing.T) {
	cases := []struct {
		total, size int
		want        []Shard
	}{
		{0, 10, nil},
		{5, 10, []Shard{{0, 0, 5}}},
		{10, 5, []Shard{{0, 0, 5}, {1, 5, 10}}},
		{11, 5, []Shard{{0, 0, 5}, {1, 5, 10}, {2, 10, 11}}},
	}
	for _, tc := range cases {
		got := Partition(tc.total, tc.size)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("Partition(%d,%d) = %v, want %v", tc.total, tc.size, got, tc.want)
		}
	}
	// size <= 0 falls back to the default, and the partition always
	// covers [0, total) exactly once.
	shards := Partition(1000, 0)
	covered := 0
	for i, sh := range shards {
		if sh.Index != i || sh.Start != covered {
			t.Fatalf("shard %d is %+v (gap or misindex)", i, sh)
		}
		covered = sh.End
	}
	if covered != 1000 {
		t.Fatalf("partition covers %d of 1000", covered)
	}
}

func TestWorkerURL(t *testing.T) {
	cases := []struct {
		in, dataset, want string
	}{
		{"localhost:8081", "", "http://localhost:8081/sweep/shard"},
		{"http://w1:9000", "", "http://w1:9000/sweep/shard"},
		{"http://w1:9000/", "paper", "http://w1:9000/sweep/shard?dataset=paper"},
	}
	for _, tc := range cases {
		got, err := workerURL(tc.in, tc.dataset)
		if err != nil || got != tc.want {
			t.Errorf("workerURL(%q,%q) = %q, %v; want %q", tc.in, tc.dataset, got, err, tc.want)
		}
	}
	if _, err := workerURL("://nope", ""); err == nil {
		t.Error("bad address accepted")
	}
}

func TestMergerOrdersAndDedupes(t *testing.T) {
	var got []int
	m := newMerger(0, func(imp *sweep.Impact) error {
		got = append(got, imp.Index)
		return nil
	}, nil)
	rec := func(i int) []*sweep.Impact { return []*sweep.Impact{{Index: i, Name: fmt.Sprintf("s%d", i)}} }

	// Out-of-order delivery: nothing reaches the sink until shard 0.
	if dup := m.deliver(2, rec(2)); dup {
		t.Fatal("fresh shard reported duplicate")
	}
	if dup := m.deliver(1, rec(1)); dup || len(got) != 0 {
		t.Fatalf("sink saw %v before shard 0 arrived", got)
	}
	// A duplicate of a pending (not yet released) shard is discarded.
	if dup := m.deliver(1, rec(99)); !dup {
		t.Fatal("duplicate of pending shard not detected")
	}
	if dup := m.deliver(0, rec(0)); dup {
		t.Fatal("shard 0 reported duplicate")
	}
	if fmt.Sprint(got) != "[0 1 2]" {
		t.Fatalf("release order %v, want [0 1 2]", got)
	}
	// A duplicate of a released shard is discarded too.
	if dup := m.deliver(2, rec(2)); !dup {
		t.Fatal("duplicate of released shard not detected")
	}
	if m.mergedShards() != 3 {
		t.Fatalf("merged %d shards, want 3", m.mergedShards())
	}
}

// TestDistributedBitIdentical is the headline property: for {1 worker ×
// 1 shard, 2 workers × 8 shards} the coordinator's record stream and
// aggregate are byte-identical to the single-process executor's.
func TestDistributedBitIdentical(t *testing.T) {
	refSweep(t)
	wantRecords := refNDJSON(t)
	wantAgg := mustJSON(t, ref.agg)
	n := len(ref.scenarios)

	cases := []struct {
		name      string
		workers   int
		shardSize int
	}{
		{"1worker_1shard", 1, n},
		{"2workers_8shards", 2, (n + 7) / 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fleet := make([]*fakeWorker, tc.workers)
			for i := range fleet {
				fleet[i] = &fakeWorker{t: t}
			}
			records, agg, err := collectRun(t, Options{
				Workers:   startWorkers(t, fleet...),
				ShardSize: tc.shardSize,
			})
			if err != nil {
				t.Fatalf("distributed run: %v", err)
			}
			if records != wantRecords {
				t.Fatalf("record stream differs from single-process output\n got %d bytes\nwant %d bytes", len(records), len(wantRecords))
			}
			if got := mustJSON(t, agg); got != wantAgg {
				t.Fatalf("aggregate differs:\n got %s\nwant %s", got, wantAgg)
			}
			total := 0
			for _, f := range fleet {
				total += len(f.served())
			}
			if want := (n + tc.shardSize - 1) / tc.shardSize; total != want {
				t.Fatalf("%d shards served, want %d", total, want)
			}
		})
	}
}

// TestFaultInjectionWorkerDiesMidShard kills one of three workers after
// K records on every attempt and proves the coordinator reassigns its
// shards, discards the truncated streams, and still emits bit-identical
// global records.
func TestFaultInjectionWorkerDiesMidShard(t *testing.T) {
	refSweep(t)
	n := len(ref.scenarios)
	// The healthy workers answer nothing until the dying one has been sent
	// a shard: each of them holds one of the eight while it waits, so the
	// dying worker's loop is the only one left to take the next. Without
	// the gate two fast workers on a loaded machine can drain the queue
	// before the third loop is first scheduled.
	dispatched := make(chan struct{})
	var once sync.Once
	healthy1 := &fakeWorker{t: t, waitFor: dispatched}
	healthy2 := &fakeWorker{t: t, waitFor: dispatched}
	dying := &fakeWorker{t: t, dieAfter: 3, onRequest: func() { once.Do(func() { close(dispatched) }) }}
	records, agg, err := collectRun(t, Options{
		Workers:     startWorkers(t, healthy1, dying, healthy2),
		ShardSize:   (n + 7) / 8,
		MaxAttempts: 10,
		EvictAfter:  2,
		Backoff:     time.Millisecond,
	})
	if err != nil {
		t.Fatalf("run with dying worker: %v", err)
	}
	if want := refNDJSON(t); records != want {
		t.Fatal("records differ from single-process output after fault recovery")
	}
	if got := mustJSON(t, agg); got != mustJSON(t, ref.agg) {
		t.Fatalf("aggregate differs after fault recovery: %s", got)
	}
	if len(dying.served()) != 0 {
		t.Fatalf("dying worker completed %d shards, should have none", len(dying.served()))
	}
	if dying.requests == 0 {
		t.Fatal("dying worker never received a shard — fault was not exercised")
	}
	if got := len(healthy1.served()) + len(healthy2.served()); got != (n+7)/((n+7)/8) && got < 2 {
		t.Fatalf("healthy workers served %d shards", got)
	}
}

// TestTransientFailureRetries proves a worker that 503s its first
// attempts is retried with backoff until it recovers, within
// MaxAttempts.
func TestTransientFailureRetries(t *testing.T) {
	refSweep(t)
	flaky := &fakeWorker{t: t, failStatus: http.StatusServiceUnavailable, failTimes: 2}
	records, _, err := collectRun(t, Options{
		Workers:     startWorkers(t, flaky),
		ShardSize:   len(ref.scenarios), // one shard: every attempt hits the flaky worker
		MaxAttempts: 5,
		EvictAfter:  10,
		Backoff:     time.Millisecond,
	})
	if err != nil {
		t.Fatalf("run with flaky worker: %v", err)
	}
	if records != refNDJSON(t) {
		t.Fatal("records differ after retries")
	}
	if flaky.requests != 3 {
		t.Fatalf("worker saw %d attempts, want 3 (2 failures + 1 success)", flaky.requests)
	}
}

// TestPermanentRejectionFailsFast: a 4xx is not retried — the run fails
// on the first response.
func TestPermanentRejectionFailsFast(t *testing.T) {
	refSweep(t)
	rejecting := &fakeWorker{t: t, failStatus: http.StatusUnprocessableEntity}
	_, _, err := collectRun(t, Options{
		Workers:     startWorkers(t, rejecting),
		ShardSize:   (len(ref.scenarios) + 1) / 2,
		MaxAttempts: 5,
		Backoff:     time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "rejected shard") {
		t.Fatalf("want permanent rejection error, got %v", err)
	}
	var perm *PermanentError
	if !errors.As(err, &perm) {
		t.Fatalf("error does not unwrap to *PermanentError: %v", err)
	}
	if rejecting.requests != 1 {
		t.Fatalf("permanent rejection was retried: %d attempts", rejecting.requests)
	}
}

// TestAllWorkersEvicted: when every worker is unhealthy the run fails
// with an eviction error instead of hanging.
func TestAllWorkersEvicted(t *testing.T) {
	refSweep(t)
	down := &fakeWorker{t: t, failStatus: http.StatusServiceUnavailable}
	_, _, err := collectRun(t, Options{
		Workers:     startWorkers(t, down),
		ShardSize:   len(ref.scenarios),
		MaxAttempts: 100,
		EvictAfter:  2,
		Backoff:     time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "evicted") {
		t.Fatalf("want eviction error, got %v", err)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
