package simulate

import "sync"

// Scratch lease. A base engine that answers many independent scenarios —
// a session's what-ifs, a sweep's workers — does not clone itself per
// scenario: it lends out scratch engines, clones of itself that outlive
// the call. A scratch engine that is provably back at the base's state
// after its scenario returns to the base's idle pool and serves the next
// one with everything it has warmed: its own graph, its layered vantage
// tables, the forest-row buffers its rollbacks recycled (rowFree) and its
// journal's slices. The journal undoes every event kind, so a scenario
// costs a clone only when its observer fails or its rollback cannot be
// proven clean — and it costs it the next holder, not this one.
//
// The idle engines sit in a sync.Pool, so the garbage collector is the
// bound on how many a base keeps: there is no size to tune.

// Scratch runs sc on a scratch engine of en — an idle one standing at
// en's state, or a new Clone — at the given parallelism (see
// SetParallelism), and calls observe with the Delta and the engine as
// the scenario left it. The engine is observe's for the call only: it
// must not be retained; what observe applies to it on top of sc is rolled
// back with sc.
//
// Afterwards the engine is restored, and this is the one place that
// decides how: Rollback undoes everything applied since the checkpoint,
// and the engine goes back to the idle pool unless a prefix is left
// unconverged that is not on en. An error or panic from observe drops the
// engine without asking what state it is in, and the next acquire clones;
// restored reports which. A scenario that fails validation never touched
// the engine, which is kept; err is that failure or observe's.
//
// Scratch never writes en, so any number of calls may run concurrently
// on a quiescent engine (the Clone contract). An Apply or Rollback on en
// itself empties its pool: the idle engines stand at a state en has left.
func (en *Engine) Scratch(parallelism int, sc Scenario, observe func(*Delta, *Engine) error) (restored bool, err error) {
	idle := en.idle()
	s, _ := idle.Get().(*Engine)
	if s == nil {
		s = en.Clone()
		mScratchCloned.Inc()
	} else {
		mScratchReused.Inc()
	}
	s.SetParallelism(parallelism)
	// Deferred so that a panic in observe unwinds past an engine that is
	// never put back.
	defer func() {
		if restored {
			idle.Put(s)
		} else {
			mScratchDiscarded.Inc()
		}
	}()
	s.Checkpoint()
	delta, err := s.Apply(sc)
	if err == nil {
		if err = observe(delta, s); err != nil {
			return false, err
		}
	}
	restored = s.Rollback() && s.UnconvergedCount() == en.UnconvergedCount()
	return restored, err
}

// idle returns en's pool of idle scratch engines. Holders put an engine
// back into the pool they took it from, so one leased before en moved
// (which drops the pool) can never be handed out after it.
func (en *Engine) idle() *sync.Pool {
	if p := en.scratch.Load(); p != nil {
		return p
	}
	en.scratch.CompareAndSwap(nil, new(sync.Pool))
	return en.scratch.Load()
}
