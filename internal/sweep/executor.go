package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/simulate"
)

// Options configures one sweep run.
type Options struct {
	// Workers is the shard count (each worker holds one scratch engine of
	// the base at a time); <= 0 uses GOMAXPROCS.
	Workers int
	// TopShifts bounds each record's per-prefix detail (default 3;
	// negative keeps none).
	TopShifts int
	// TopK bounds the aggregate's critical-scenario lists (default 10).
	TopK int
	// OnImpact, when set, receives every record strictly in scenario
	// index order (calls are serialized). Returning an error aborts the
	// sweep — the streaming server uses this to stop on a dead client.
	OnImpact func(*Impact) error
	// OnWorkerDone, when set, receives each worker's lifetime stats as
	// it drains (calls may interleave across workers; the receiver
	// serializes). cmd/sweep logs these and the executor benchmarks
	// derive parallel efficiency from them.
	//
	// Delivery is guaranteed for every effective worker before Run
	// returns — including when the run ends early on context
	// cancellation or a sink abort — so a canceled sweep still reports
	// the utilization of the work it did complete. Pinned by
	// TestRunCancellationFlushesWorkerStats.
	OnWorkerDone func(WorkerStats)
	// BaseIndex offsets every record's Index (and the indices inside the
	// aggregate's top-k lists). A distributed shard worker runs
	// scenarios[start:end) with BaseIndex=start so its records carry
	// global scenario indices; zero for whole-sweep runs.
	BaseIndex int
}

// WorkerStats summarizes one sweep worker's run.
type WorkerStats struct {
	// Worker is the shard index in [0, EffectiveWorkers).
	Worker int `json:"worker"`
	// Scenarios is how many scenarios this worker applied.
	Scenarios int `json:"scenarios"`
	// Busy is the wall time spent applying and restoring scenarios
	// (excludes queue idling — the gap between Busy and the run's wall
	// time is contention or starvation).
	Busy time.Duration `json:"busy_ns"`
	// Reclones counts scenarios whose scratch engine was dropped — the
	// rollback left a prefix unconverged that the base converges — each
	// costing a later scenario a fresh clone. The rollback journal undoes
	// every event kind, so this is a failure path and reads 0.
	Reclones int `json:"reclones"`
}

// EffectiveWorkers resolves the shard count actually used for an
// n-scenario sweep: Workers, defaulted to GOMAXPROCS, capped at n.
func (o Options) EffectiveWorkers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (o Options) topShifts() int {
	if o.TopShifts == 0 {
		return 3
	}
	return o.TopShifts
}

// Run executes every scenario against base's converged state and
// returns the streamed aggregate. Workers pull scenarios from a shared
// queue and run each on a scratch engine leased from base
// (simulate.Engine.Scratch): a copy-on-write clone that outlives the
// scenario — and this call — because the engine's rollback journal puts
// it back at base's state whatever the scenario's events were; it is
// replaced by a fresh clone only when a rollback cannot be proven clean.
// A second Run on the same base starts on the engines the first one
// warmed.
//
// Records are deterministic and identically ordered regardless of
// Workers: every scenario observes the pristine base state, and
// emission (OnImpact + aggregation) happens strictly in scenario index
// order. The base engine itself is never mutated.
func Run(ctx context.Context, base *simulate.Engine, scenarios []simulate.Scenario, opts Options) (*Aggregate, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("sweep: no scenarios")
	}
	workers := opts.EffectiveWorkers(len(scenarios))
	topShifts := opts.topShifts()

	em := &emitter{
		agg:     NewAggregator(opts.TopK),
		pending: make(map[int]*Impact),
		sink:    opts.OnImpact,
	}
	var (
		next int64 = -1
		wg   sync.WaitGroup
	)
	mSweepRuns.Inc()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			ws := WorkerStats{Worker: worker}
			// Deferred unconditionally (and registered after wg.Done, so
			// it runs first): partial stats flush on every exit path —
			// queue drained, context canceled, sink aborted — before
			// wg.Wait can release Run.
			defer func() {
				mWorkerBusySeconds.Observe(ws.Busy.Seconds())
				if opts.OnWorkerDone != nil {
					opts.OnWorkerDone(ws)
				}
			}()
			// One observer per worker builds each scenario's record, and
			// peers, where the records gather their vantage points, outlives
			// them.
			var (
				peers []bgp.ASN
				sc    simulate.Scenario
				imp   *Impact
			)
			observe := func(delta *simulate.Delta, _ *simulate.Engine) error {
				imp, peers = buildImpact(sc, delta, topShifts, peers)
				return nil
			}
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(scenarios) || ctx.Err() != nil || em.aborted() {
					return
				}
				sc, imp = scenarios[i], nil
				start := time.Now()
				// Parallelism 1: it lives across scenarios, not inside each
				// incremental apply.
				restored, err := base.Scratch(1, sc, observe)
				if err != nil {
					imp = &Impact{Name: sc.Name, Events: len(sc.Events), Error: err.Error()}
				}
				if restored {
					mRestoreJournal.Inc()
				} else {
					ws.Reclones++
					mRestoreReclone.Inc()
				}
				el := time.Since(start)
				ws.Busy += el
				ws.Scenarios++
				mSweepScenarios.Inc()
				mScenarioSeconds.Observe(el.Seconds())
				imp.Index = opts.BaseIndex + i
				em.emit(i, imp)
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := em.sinkErr; err != nil {
		return nil, fmt.Errorf("sweep: emitting record: %w", err)
	}
	return em.agg.Aggregate(), nil
}

// emitter re-serializes out-of-order worker completions into strict
// scenario index order before they reach the aggregator and the
// caller's sink.
type emitter struct {
	mu       sync.Mutex
	pending  map[int]*Impact
	nextEmit int
	agg      *Aggregator
	sink     func(*Impact) error
	sinkErr  error
	abort    atomic.Bool
}

func (em *emitter) aborted() bool { return em.abort.Load() }

func (em *emitter) emit(i int, imp *Impact) {
	em.mu.Lock()
	defer em.mu.Unlock()
	em.pending[i] = imp
	for {
		ready, ok := em.pending[em.nextEmit]
		if !ok {
			return
		}
		delete(em.pending, em.nextEmit)
		em.nextEmit++
		em.agg.Add(ready)
		if em.sink != nil && em.sinkErr == nil {
			if err := em.sink(ready); err != nil {
				em.sinkErr = err
				em.abort.Store(true)
			}
		}
	}
}
