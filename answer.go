package policyscope

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/internal/jsonw"
	"github.com/policyscope/policyscope/obs"
)

// Answer is one experiment outcome together with its two wire bodies,
// each rendered on first demand and then kept. Session.Run hands equal
// questions the same Answer, which rests on a contract every registered
// result type keeps: Render and JSON marshaling have value receivers and
// read only, and nobody mutates a Result (or the slices and maps it
// shares with the Study) once its run function has returned it.
type Answer struct {
	// Result is the typed outcome Session.Run returns.
	Result experiment.Result

	name       string
	json, text body

	// held is the session account the rendered bytes are charged to
	// while the result memo holds this answer; nil when it does not
	// (never memoized, or evicted). charged is what release gives back.
	mu      sync.Mutex
	held    *heldBytes
	charged int64
}

// body is one lazily rendered wire form.
type body struct {
	once sync.Once
	b    []byte
	err  error
}

// JSON returns the POST /run/{name} response body: the
// {"name", "result"} envelope, two-space indented, newline-terminated.
// The bytes are shared — callers must not modify them.
func (a *Answer) JSON() ([]byte, error) {
	return a.render(&a.json, func(keep func([]byte)) error {
		return jsonw.Encode(struct {
			Name   string            `json:"name"`
			Result experiment.Result `json:"result"`
		}{a.name, a.Result}, keep)
	})
}

// Text returns the rendered report (Result.Render). The bytes are
// shared — callers must not modify them.
func (a *Answer) Text() ([]byte, error) {
	return a.render(&a.text, func(keep func([]byte)) error {
		return jsonw.Render(a.Result.Render, keep)
	})
}

// render renders a body once into a pooled buffer and keeps an
// exact-size copy, so the bytes charged to the session are the bytes
// retained: make and copy, not bytes.Clone, whose append rounds the
// capacity up to a size class.
func (a *Answer) render(b *body, write func(keep func([]byte)) error) ([]byte, error) {
	b.once.Do(func() {
		b.err = write(func(out []byte) {
			b.b = make([]byte, len(out))
			copy(b.b, out)
		})
		if b.err != nil {
			return
		}
		a.mu.Lock()
		if a.held != nil {
			a.charged += int64(len(b.b))
			a.held.add(int64(len(b.b)))
		}
		a.mu.Unlock()
	})
	return b.b, b.err
}

// release is the result memo's eviction hook: the answer's bytes leave
// the session's account, and bodies rendered later (by a request still
// holding the answer) are no longer charged.
func (a *Answer) release() {
	a.mu.Lock()
	if a.held != nil {
		a.held.add(-a.charged)
		a.held = nil
	}
	a.mu.Unlock()
}

// heldBytes is one session's share of
// policyscope_session_result_memo_bytes. It is its own allocation,
// pointing at nothing of the session's, so that a finalizer can return
// the share when the session is collected — the dataset pool releases an
// evicted session to the garbage collector, and nothing else tells us it
// is gone.
type heldBytes struct {
	n     atomic.Int64
	total *obs.Gauge
}

func newHeldBytes() *heldBytes {
	h := &heldBytes{total: mResultMemoBytes}
	runtime.SetFinalizer(h, func(h *heldBytes) { h.total.Add(-h.n.Load()) })
	return h
}

func (h *heldBytes) add(n int64) {
	h.n.Add(n)
	h.total.Add(n)
}
