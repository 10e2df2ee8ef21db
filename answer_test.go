package policyscope

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/internal/sweep"
	"github.com/policyscope/policyscope/obs"
)

// resultMemoCounts reads policyscope_session_memo_total{cache="result"}.
func resultMemoCounts(se *Session) (hit, miss uint64) {
	return se.results.hit.Value(), se.results.miss.Value()
}

// bodies renders both wire forms of an answer.
func bodies(t *testing.T, a *Answer) (js, text []byte) {
	t.Helper()
	js, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	text, err = a.Text()
	if err != nil {
		t.Fatal(err)
	}
	return js, text
}

// heldInMemo sums the rendered bytes of the answers the session's result
// memo holds right now — what the session's share of the gauge must read.
func heldInMemo(se *Session) int64 {
	se.results.mu.Lock()
	defer se.results.mu.Unlock()
	var n int64
	for _, e := range se.results.entries {
		n += int64(len(e.val.json.b) + len(e.val.text.b))
	}
	return n
}

// TestResultMemoSingleFlight: sixteen concurrent askers of one question
// cost one computation and one rendering per format, and what they all
// read is what a session that never memoized anything computes cold.
func TestResultMemoSingleFlight(t *testing.T) {
	se := smallSession(t)
	if _, err := se.Study(); err != nil {
		t.Fatal(err)
	}
	hit0, miss0 := resultMemoCounts(se)
	const askers = 16
	js, text := make([][]byte, askers), make([][]byte, askers)
	var wg sync.WaitGroup
	for i := 0; i < askers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := se.AnswerJSON(context.Background(), "table7", nil)
			if err != nil {
				t.Error(err)
				return
			}
			if js[i], err = a.JSON(); err != nil {
				t.Error(err)
			}
			if text[i], err = a.Text(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	hit, miss := resultMemoCounts(se)
	if miss-miss0 != 1 || hit-hit0 != askers-1 {
		t.Fatalf("%d askers: %d misses, %d hits; want 1 and %d", askers, miss-miss0, hit-hit0, askers-1)
	}
	for i := 1; i < askers; i++ {
		// One rendering, shared: not merely equal bytes.
		if &js[i][0] != &js[0][0] || &text[i][0] != &text[0][0] {
			t.Fatalf("asker %d was handed its own rendering", i)
		}
	}
	if got, want := se.held.n.Load(), int64(len(js[0])+len(text[0])); got != want {
		t.Fatalf("session holds %d rendered bytes, bodies total %d", got, want)
	}

	cold, err := smallSession(t).AnswerJSON(context.Background(), "table7", nil)
	if err != nil {
		t.Fatal(err)
	}
	coldJS, coldText := bodies(t, cold)
	if !bytes.Equal(coldJS, js[0]) || !bytes.Equal(coldText, text[0]) {
		t.Fatal("a memo hit and a cold computation differ")
	}
	var viaRender bytes.Buffer
	if err := cold.Result.Render(&viaRender); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaRender.Bytes(), text[0]) {
		t.Fatal("Answer.Text differs from Result.Render")
	}
}

// TestResultMemoCanonicalParams: every spelling of one parameter set —
// nil, an empty body, {}, the defaults written out, the key=value form,
// a typed pointer — is one entry; a different value is another.
func TestResultMemoCanonicalParams(t *testing.T) {
	se := smallSession(t)
	ctx := context.Background()
	_, miss0 := resultMemoCounts(se)
	spellings := []func() (experiment.Result, error){
		func() (experiment.Result, error) { return se.Run(ctx, "table8", nil) },
		func() (experiment.Result, error) { return se.RunJSON(ctx, "table8", nil) },
		func() (experiment.Result, error) { return se.RunJSON(ctx, "table8", []byte(`{}`)) },
		func() (experiment.Result, error) { return se.RunJSON(ctx, "table8", []byte(` {"providers": 3} `)) },
		func() (experiment.Result, error) { return se.RunKV(ctx, "table8", []string{"providers=3"}) },
		func() (experiment.Result, error) { return se.Run(ctx, "table8", &ProvidersParams{Providers: 3}) },
	}
	for i, run := range spellings {
		if _, err := run(); err != nil {
			t.Fatalf("spelling %d: %v", i, err)
		}
	}
	if _, miss := resultMemoCounts(se); miss-miss0 != 1 || len(se.results.entries) != 1 {
		t.Fatalf("%d spellings of one parameter set: %d misses, %d entries; want 1 and 1",
			len(spellings), miss-miss0, len(se.results.entries))
	}
	if _, err := se.RunKV(ctx, "table8", []string{"providers=2"}); err != nil {
		t.Fatal(err)
	}
	if _, miss := resultMemoCounts(se); miss-miss0 != 2 || len(se.results.entries) != 2 {
		t.Fatalf("providers=2 shared the providers=3 entry (%d misses, %d entries)",
			miss-miss0, len(se.results.entries))
	}
}

// TestRunTypedNilParamsAreDefaults: a nil pointer of an experiment's
// parameter type asks what an untyped nil asks — the defaults, under the
// same memo key — for every catalog entry, NoParams ones included. The
// dataset is smaller than smallSession's: inferensemble's defaults
// converge five sampled topologies.
func TestRunTypedNilParamsAreDefaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumASes = 120
	cfg.CollectorPeers = 8
	cfg.LookingGlassASes = 4
	se := NewSession(cfg)
	ctx := context.Background()
	for _, e := range catalog.All() {
		typedNil := any((*NoParams)(nil))
		if e.NewParams != nil {
			typedNil = reflect.Zero(reflect.TypeOf(e.NewParams())).Interface()
		}
		// The typed nil asks first, so a shared memo entry cannot hide
		// how it would be computed.
		got, err := se.answer(ctx, e.Name, typedNil)
		if err != nil {
			t.Fatalf("%s, %T(nil): %v", e.Name, typedNil, err)
		}
		want, err := se.answer(ctx, e.Name, nil)
		if err != nil {
			t.Fatalf("%s, nil params: %v", e.Name, err)
		}
		if !e.NoMemo {
			if got != want {
				t.Errorf("%s: %T(nil) is memoized apart from the defaults", e.Name, typedNil)
			}
			continue
		}
		wantJS, _ := bodies(t, want)
		if gotJS, _ := bodies(t, got); !bytes.Equal(gotJS, wantJS) {
			t.Errorf("%s: %T(nil) answers differently from the defaults", e.Name, typedNil)
		}
	}
}

// canceledAfterGate is a context that is live when Session.answer looks
// at it and canceled by the time the computation does: a caller who gave
// up mid-compute, without a clock.
type canceledAfterGate struct {
	context.Context
	looks atomic.Int32
}

func (c *canceledAfterGate) Err() error {
	if c.looks.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestResultMemoErrorsNotRetained: a caller canceled mid-compute, a
// parameter the run function refuses and a dataset that cannot answer
// each leave the memo empty, fail the same way when asked again, and do
// not stand in the way of a caller who can be answered.
func TestResultMemoErrorsNotRetained(t *testing.T) {
	se := smallSession(t)
	gaoOnly := []byte(`{"algos": ["gao"]}`)
	gone := &canceledAfterGate{Context: context.Background()}
	_, miss0 := resultMemoCounts(se)
	if _, err := se.RunJSON(gone, "inferbakeoff", gaoOnly); !errors.Is(err, context.Canceled) {
		t.Fatalf("caller canceled mid-compute: got %v, want context.Canceled", err)
	}
	if _, miss := resultMemoCounts(se); miss-miss0 != 1 {
		t.Fatalf("the canceled caller never reached the computation (%d misses)", miss-miss0)
	}
	if n := len(se.results.entries); n != 0 {
		t.Fatalf("a canceled computation left %d entries behind", n)
	}
	if _, err := se.RunJSON(context.Background(), "inferbakeoff", gaoOnly); err != nil {
		t.Fatalf("the next caller inherited the canceled run: %v", err)
	}

	// Well-formed parameters the run function itself refuses.
	noSuchAlgo := []byte(`{"algos": ["nope"]}`)
	for i := 0; i < 2; i++ {
		var pe *experiment.ParamError
		if _, err := se.RunJSON(context.Background(), "inferbakeoff", noSuchAlgo); !errors.As(err, &pe) {
			t.Fatalf("ask %d: got %v, want a ParamError", i, err)
		}
	}
	if n := len(se.results.entries); n != 1 {
		t.Fatalf("a ParamError was retained: %d entries, want the one good answer", n)
	}

	s, err := se.Study()
	if err != nil {
		t.Fatal(err)
	}
	var mrt bytes.Buffer
	if err := s.Snapshot.WriteMRT(&mrt); err != nil {
		t.Fatal(err)
	}
	snap, err := readMRTBytes(mrt.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	imported, err := NewStudyFromSnapshot(snap, Config{})
	if err != nil {
		t.Fatal(err)
	}
	imp := NewSessionFromStudy(imported)
	for i := 0; i < 2; i++ {
		if _, err := imp.Run(context.Background(), "table1", nil); !errors.Is(err, ErrNeedsGroundTruth) {
			t.Fatalf("ask %d: got %v, want ErrNeedsGroundTruth", i, err)
		}
	}
	if n := len(imp.results.entries); n != 0 {
		t.Fatalf("ErrNeedsGroundTruth was retained: %d entries", n)
	}
}

// TestResultMemoBound: past maxResultMemo entries the oldest answer is
// evicted, its bytes leave the gauge, and asking again recomputes it
// byte-identically.
func TestResultMemoBound(t *testing.T) {
	se := smallSession(t)
	ctx := context.Background()
	ask := func(maxASes int) (js, text []byte) {
		a, err := se.AnswerJSON(ctx, "table4", []byte(fmt.Sprintf(`{"max_ases": %d}`, maxASes)))
		if err != nil {
			t.Fatal(err)
		}
		return bodies(t, a)
	}
	firstJS, firstText := ask(1)
	for k := 2; k <= maxResultMemo; k++ {
		ask(k)
	}
	if n := len(se.results.entries); n != maxResultMemo {
		t.Fatalf("%d entries after %d questions", n, maxResultMemo)
	}
	full := se.held.n.Load()
	if want := heldInMemo(se); full != want {
		t.Fatalf("session account %d, memo holds %d rendered bytes", full, want)
	}
	ask(maxResultMemo + 1) // evicts max_ases=1, the oldest
	if n := len(se.results.entries); n != maxResultMemo {
		t.Fatalf("bound not held: %d entries", n)
	}
	if got, want := se.held.n.Load(), heldInMemo(se); got != want {
		t.Fatalf("after an eviction the session account reads %d, the memo holds %d", got, want)
	}
	_, miss0 := resultMemoCounts(se)
	againJS, againText := ask(1)
	if _, miss := resultMemoCounts(se); miss-miss0 != 1 {
		t.Fatalf("the evicted question was not recomputed (%d misses)", miss-miss0)
	}
	if !bytes.Equal(againJS, firstJS) || !bytes.Equal(againText, firstText) {
		t.Fatal("an evicted answer was recomputed to different bytes")
	}
}

// TestResultMemoBytesFollowSession: a session's share leaves the gauge
// when the session is collected — the pool drops an evicted session
// without telling anyone.
func TestResultMemoBytesFollowSession(t *testing.T) {
	// A gauge of the test's own: the process-wide one also moves whenever
	// an earlier test's session is collected.
	total := obs.NewRegistry().NewGauge("held", "")
	func() {
		se := smallSession(t)
		se.held.total = total
		a, err := se.AnswerJSON(context.Background(), "table2", nil)
		if err != nil {
			t.Fatal(err)
		}
		js, text := bodies(t, a)
		if got, want := total.Value(), int64(len(js)+len(text)); got != want {
			t.Fatalf("gauge reads %d, the rendered bodies total %d", got, want)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for total.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gauge reads %d after the session was dropped, want 0", total.Value())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestScenarioExperimentsBypassResultMemo: whatif and sweep carry their
// input in their parameters; they never enter the memo, never move its
// counters, and their bodies are charged to nobody.
func TestScenarioExperimentsBypassResultMemo(t *testing.T) {
	se := smallSession(t)
	ctx := context.Background()
	if err := se.Warm(); err != nil {
		t.Fatal(err)
	}
	hit0, miss0 := resultMemoCounts(se)
	sweepParams := &SweepParams{Spec: sweep.Spec{Generators: []sweep.Generator{
		{Kind: sweep.KindAllSingleLinkFailures, Max: 2}}}}
	for i := 0; i < 2; i++ {
		for name, params := range map[string]any{"whatif": nil, "sweep": sweepParams} {
			a, err := se.answer(ctx, name, params)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bodies(t, a)
		}
	}
	hit, miss := resultMemoCounts(se)
	if hit != hit0 || miss != miss0 || len(se.results.entries) != 0 {
		t.Fatalf("scenario experiments touched the result memo: +%d hits, +%d misses, %d entries",
			hit-hit0, miss-miss0, len(se.results.entries))
	}
	if got := se.held.n.Load(); got != 0 {
		t.Fatalf("%d bytes of unheld bodies were charged to the session", got)
	}
}

// TestMemoEvictedHook: the eviction hook sees every good value the bound
// pushes out exactly once, including one still being computed when its
// entry was evicted, and never a failed one.
func TestMemoEvictedHook(t *testing.T) {
	m := newMemo[string, int]("test", 1)
	var mu sync.Mutex
	var evicted []int
	m.evicted = func(v int) { mu.Lock(); evicted = append(evicted, v); mu.Unlock() }

	entered, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.get("slow", func() (int, error) { close(entered); <-release; return 1, nil })
	}()
	<-entered
	m.get("b", func() (int, error) { return 2, nil }) // evicts "slow" mid-flight
	if len(evicted) != 0 {
		t.Fatalf("a value not yet computed was handed over: %v", evicted)
	}
	close(release)
	wg.Wait()
	m.get("fails", func() (int, error) { return 3, errors.New("boom") }) // evicts "b"; itself dropped
	m.get("c", func() (int, error) { return 4, nil })
	if fmt.Sprint(evicted) != "[1 2]" {
		t.Fatalf("evicted %v, want [1 2]", evicted)
	}
}

// TestAnswerBodiesExactSize: an answer keeps exact-size copies of its
// bodies — no grown buffer's spare capacity rides along — so the
// session's share of policyscope_session_result_memo_bytes is the bytes
// the memo retains.
func TestAnswerBodiesExactSize(t *testing.T) {
	total := obs.NewRegistry().NewGauge("held", "")
	se := smallSession(t)
	se.held.total = total
	for _, name := range []string{"table1", "table2", "table7", "table8", "figure2a"} {
		a, err := se.AnswerJSON(context.Background(), name, nil)
		if err != nil {
			t.Fatal(err)
		}
		js, text := bodies(t, a)
		for form, b := range map[string][]byte{"JSON": js, "text": text} {
			if len(b) == 0 || cap(b) != len(b) {
				t.Fatalf("%s %s body: len %d, cap %d", name, form, len(b), cap(b))
			}
		}
		again, err := a.JSON()
		if err != nil || &again[0] != &js[0] {
			t.Fatalf("%s: a second JSON() was not the kept body (%v)", name, err)
		}
	}
	held := heldInMemo(se)
	if got := total.Value(); got != held || se.held.n.Load() != held {
		t.Fatalf("gauge reads %d, session account %d, the memo's answers hold %d bytes",
			got, se.held.n.Load(), held)
	}
}
