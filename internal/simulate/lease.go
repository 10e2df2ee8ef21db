package simulate

import (
	"runtime"
	"sync"
)

// Scratch lease. A base engine that answers many independent scenarios —
// a session's what-ifs, a sweep's workers — does not clone itself per
// scenario: it lends out scratch engines, clones of itself that outlive
// the call. A scratch engine that is provably back at the base's state
// after its scenario returns to the base's idle list and serves the next
// one with everything it has warmed: its own graph, its layered vantage
// tables, the region its rollbacks rewind, its journal's slices, and the
// arrays its scenarios' Deltas were built in with the maps their
// incremental passes reconstructed from (deltaBuf).
// The journal undoes every event kind, so a scenario costs a clone only
// when its observer fails or its rollback cannot be proven clean — and it
// costs it the next holder, not this one.
//
// The base keeps its idle engines in a list it owns, at most ScratchLimit
// of them, so its clone count depends on its leases alone: a lease clones
// when it finds the list empty — the first one, one per holder beyond the
// engines idle, the next after a discard or after the base moved — and
// reuses otherwise, the engine given back last first (idleList).

// ScratchLimit is how many idle scratch engines a base keeps: 2x
// GOMAXPROCS, read when the base makes its list. It is also the cap
// Session.Sweep puts on worker counts, so the engines of a clamped sweep
// all fit in the list.
func ScratchLimit() int { return 2 * runtime.GOMAXPROCS(0) }

// Scratch runs sc on a scratch engine of en — an idle one standing at
// en's state, or a new Clone — at the given parallelism (see
// SetParallelism), and calls observe with the Delta and the engine as
// the scenario left it. Both are observe's for the call only: neither
// may be retained. The Delta is built in arrays the engine keeps and
// rebuilds the next scenario's Delta in, so a caller that wants any of it
// afterwards copies it out; what observe applies to the engine on top of
// sc (through Apply, whose Deltas are the caller's) is rolled back with sc.
//
// Afterwards the engine is restored, and this is the one place that
// decides how: Rollback undoes everything applied since the checkpoint,
// and the engine goes back to the idle list unless a prefix is left
// unconverged that is not on en. An error or panic from observe drops the
// engine without asking what state it is in, and the next acquire clones;
// restored reports which. A scenario that fails validation never touched
// the engine, which is kept; err is that failure or observe's.
//
// Scratch never writes en, so any number of calls may run concurrently
// on a quiescent engine (the Clone contract). An Apply or Rollback on en
// itself drops its list: the idle engines stand at a state en has left.
func (en *Engine) Scratch(parallelism int, sc Scenario, observe func(*Delta, *Engine) error) (restored bool, err error) {
	idle := en.idle()
	s := idle.pop()
	if s != nil {
		mScratchReused.Inc()
	} else {
		s = en.Clone()
		mScratchCloned.Inc()
	}
	s.SetParallelism(parallelism)
	// Deferred so that a panic in observe unwinds past an engine that is
	// never put back.
	defer func() {
		if !restored {
			mScratchDiscarded.Inc()
			return
		}
		idle.push(s)
	}()
	if s.leased == nil {
		s.leased = new(deltaBuf)
	}
	s.Checkpoint()
	if err = s.apply(sc, s.leased); err == nil {
		if err = observe(&s.leased.d, s); err != nil {
			return false, err
		}
	}
	restored = s.Rollback() && s.UnconvergedCount() == en.UnconvergedCount()
	return restored, err
}

// idleList is a base's stack of idle scratch engines, at most
// ScratchLimit of them. Last in, first out: the engine given back last is
// the one whose maps, journal and buffers the scenarios before grew
// warmest, and a holder that leases one scenario after another — a
// one-worker sweep, a what-if at a time — keeps getting it back, where a
// queue would hand it each idle engine in turn and make every one of them
// pay the same warm-up.
type idleList struct {
	mu      sync.Mutex
	engines []*Engine // capacity ScratchLimit
}

// pop takes the engine given back last, or nil when none is idle.
func (l *idleList) pop() *Engine {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.engines)
	if n == 0 {
		return nil
	}
	s := l.engines[n-1]
	l.engines[n-1] = nil
	l.engines = l.engines[:n-1]
	return s
}

// push gives s back, or drops it when the list is full.
func (l *idleList) push(s *Engine) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.engines) < cap(l.engines) {
		l.engines = append(l.engines, s)
	}
}

// idle returns en's list of idle scratch engines. Holders give an engine
// back to the list they took it from, so one leased before en moved
// (which drops the list) can never be handed out after it.
func (en *Engine) idle() *idleList {
	if l := en.scratch.Load(); l != nil {
		return l
	}
	en.scratch.CompareAndSwap(nil, &idleList{engines: make([]*Engine, 0, ScratchLimit())})
	return en.scratch.Load()
}
