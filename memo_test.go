package policyscope

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"github.com/policyscope/policyscope/internal/sweep"
)

// TestMemoSemantics pins the one memo every session cache shares:
// values are computed once per key, errors are never retained, and the
// optional bound evicts first-in first-out.
func TestMemoSemantics(t *testing.T) {
	m := newMemo[string, int]("test", 2)
	calls := 0
	ok := func() (int, error) { calls++; return calls, nil }
	boom := errors.New("boom")

	if _, err := m.get("a", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("first get: %v, want boom", err)
	}
	if v, err := m.get("a", ok); err != nil || v != 1 {
		t.Fatalf("get after a failure: %d, %v — the error was retained", v, err)
	}
	if v, _ := m.get("a", ok); v != 1 || calls != 1 {
		t.Fatalf("second get recomputed: v=%d calls=%d", v, calls)
	}
	m.get("b", ok)
	m.get("c", ok) // evicts "a", the oldest
	if v, _ := m.get("b", ok); v != 2 {
		t.Fatalf("b was evicted out of order: %d", v)
	}
	if v, _ := m.get("a", ok); v != 4 {
		t.Fatalf("a survived a full memo: %d", v)
	}
	if len(m.entries) != 2 || len(m.fifo) != 2 {
		t.Fatalf("bound not held: %d entries, fifo %v", len(m.entries), m.fifo)
	}
}

// TestMemoFollowerDoesNotInheritError: a caller that waited on another
// caller's failed computation recomputes under its own closure.
func TestMemoFollowerDoesNotInheritError(t *testing.T) {
	m := newMemo[string, int]("test", 0)
	entered, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.get("k", func() (int, error) {
			close(entered)
			<-release
			return 0, context.Canceled
		})
	}()
	<-entered
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Either this waits on the leader's flight and retries, or it
		// arrives after the failed entry was dropped; both must succeed.
		if v, err := m.get("k", func() (int, error) { return 7, nil }); err != nil || v != 7 {
			t.Errorf("follower got %d, %v", v, err)
		}
	}()
	close(release)
	wg.Wait()
}

// TestMemoPanicLeavesNothingBehind: a computation that panics fails its
// own caller with the panic and leaves no entry behind, so the next
// caller — one that comes after, and one that was waiting on the
// panicking flight — computes under its own closure.
func TestMemoPanicLeavesNothingBehind(t *testing.T) {
	seven := func() (int, error) { return 7, nil }
	getPanics := func(m *memo[string, int], compute func() (int, error)) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		m.get("k", compute)
		return false
	}
	t.Run("sequential", func(t *testing.T) {
		m := newMemo[string, int]("test", 0)
		if !getPanics(m, func() (int, error) { panic("boom") }) {
			t.Fatal("the computation's panic was swallowed")
		}
		if v, err := m.get("k", seven); err != nil || v != 7 {
			t.Fatalf("next caller got %d, %v — the panicked entry was kept", v, err)
		}
	})
	t.Run("waiting", func(t *testing.T) {
		m := newMemo[string, int]("test", 0)
		entered, release := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !getPanics(m, func() (int, error) { close(entered); <-release; panic("boom") }) {
				t.Error("the computation's panic was swallowed")
			}
		}()
		<-entered
		hits := m.hit.Value()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := m.get("k", seven); err != nil || v != 7 {
				t.Errorf("waiting caller got %d, %v — it inherited the panicked flight", v, err)
			}
		}()
		// Let the follower join the flight before the leader panics.
		for m.hit.Value() == hits {
			runtime.Gosched()
		}
		close(release)
		wg.Wait()
		if v, err := m.get("k", func() (int, error) { return 0, errors.New("recomputed") }); err != nil || v != 7 {
			t.Fatalf("after the retry: %d, %v; want the waiting caller's 7 memoized", v, err)
		}
	})
}

// TestSessionInferCanceledContextNotRetained: a first caller whose
// context is already canceled must not poison the (algo, params) key
// for the life of the session.
func TestSessionInferCanceledContextNotRetained(t *testing.T) {
	se := smallSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := se.Infer(ctx, "gao", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled caller: got %v, want context.Canceled", err)
	}
	if _, err := se.Infer(context.Background(), "gao", nil); err != nil {
		t.Fatalf("live caller inherited the canceled run: %v", err)
	}
}

// TestSessionMemosShareSemantics: the persistence and sweep-expansion
// caches are the same memo — a canceled expansion is retried, a
// successful one is shared, and figure6/figure7 share one series.
func TestSessionMemosShareSemantics(t *testing.T) {
	se := smallSession(t)
	spec := sweep.Spec{Generators: []sweep.Generator{{Kind: sweep.KindAllSingleLinkFailures, Max: 4}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := se.SweepScenariosCached(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled expansion: got %v, want context.Canceled", err)
	}
	a, err := se.SweepScenariosCached(context.Background(), spec)
	if err != nil {
		t.Fatalf("live expansion inherited the canceled one: %v", err)
	}
	b, err := se.SweepScenariosCached(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 || &a[0] != &b[0] {
		t.Fatal("equal specs did not share one expansion")
	}

	for _, name := range []string{"figure6", "figure7"} {
		if _, err := se.RunJSON(context.Background(), name, []byte(`{"epochs": 2}`)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(se.persist.entries); n != 1 {
		t.Fatalf("figure6 and figure7 hold %d persistence series, want 1 shared", n)
	}
}
