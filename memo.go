package policyscope

import (
	"errors"
	"sync"

	"github.com/policyscope/policyscope/obs"
)

// memo is the session's keyed once-memo: concurrent callers of one key
// share a single computation and later callers reuse its value. Errors
// are never retained — a failed computation's entry is dropped, so the
// next caller recomputes — and never inherited: a caller that waited on
// another caller's failed computation (say, one whose context was
// canceled) recomputes under its own. A panicking computation counts as
// failed: its panic goes on up its own caller's stack, and it leaves
// nothing behind.
type memo[K comparable, V any] struct {
	hit, miss *obs.Counter
	// max bounds the entry count, evicting first-in first-out; zero is
	// unbounded.
	max int
	// evicted, when set, receives every computed value the bound pushes
	// out, exactly once — at eviction, or as soon as it is computed when
	// its entry was evicted mid-flight — so an owner can account for what
	// the memo holds.
	evicted func(V)

	mu      sync.Mutex
	entries map[K]*memoEntry[V]
	fifo    []K
}

// errComputePanicked marks an entry whose computation did not return.
var errComputePanicked = errors.New("policyscope: memoized computation panicked")

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
	// done (val is computed and good; set only when memo.evicted is) and
	// gone (evicted by the bound) are guarded by memo.mu; whichever is
	// set second hands val to memo.evicted.
	done, gone bool
}

// newMemo returns a memo counted under policyscope_session_memo_total's
// cache label.
func newMemo[K comparable, V any](cache string, max int) *memo[K, V] {
	return &memo[K, V]{
		hit: mMemo.With(cache, "hit"), miss: mMemo.With(cache, "miss"),
		max: max, entries: make(map[K]*memoEntry[V]),
	}
}

// get returns the value memoized under k, computing it on a miss.
func (m *memo[K, V]) get(k K, compute func() (V, error)) (V, error) {
	for {
		m.mu.Lock()
		entry, ok := m.entries[k]
		var old *memoEntry[V]
		if !ok {
			entry = &memoEntry[V]{}
			if m.max > 0 && len(m.fifo) >= m.max {
				old = m.entries[m.fifo[0]]
				old.gone = true
				delete(m.entries, m.fifo[0])
				m.fifo = m.fifo[1:]
			}
			m.entries[k] = entry
			if m.max > 0 {
				m.fifo = append(m.fifo, k)
			}
		}
		release := old != nil && old.done
		m.mu.Unlock()
		if release {
			m.evicted(old.val)
		}
		if ok {
			m.hit.Inc()
		} else {
			m.miss.Inc()
		}
		ran := false
		entry.once.Do(func() {
			ran = true
			// A panicking compute leaves errComputePanicked in place: the
			// entry is dropped on the way out, and a caller waiting on this
			// flight sees an error and retries under its own compute.
			entry.err = errComputePanicked
			defer func() {
				if entry.err == errComputePanicked {
					m.drop(k, entry)
				}
			}()
			entry.val, entry.err = compute()
			if entry.err != nil || m.evicted == nil {
				return
			}
			m.mu.Lock()
			entry.done = true
			gone := entry.gone
			m.mu.Unlock()
			if gone {
				m.evicted(entry.val)
			}
		})
		if entry.err == nil {
			return entry.val, nil
		}
		m.drop(k, entry)
		if ran {
			return entry.val, entry.err
		}
	}
}

// drop forgets a failed entry, unless k was evicted and refilled since.
func (m *memo[K, V]) drop(k K, entry *memoEntry[V]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[k] != entry {
		return
	}
	delete(m.entries, k)
	for i, q := range m.fifo {
		if q == k {
			m.fifo = append(m.fifo[:i], m.fifo[i+1:]...)
			break
		}
	}
}
