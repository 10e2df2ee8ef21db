package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// The benchmark's own span recorder. The product packages carry no
// spans from this harness: every span here wraps a call the harness
// makes into a layer's public API. Spans stay in memory and are written
// out (NDJSON) only when the run ends.

// spanRecord is one recorded interval. Parent is the index of the span
// that caused it (-1 for a root); spans of one operation share Op.
type spanRecord struct {
	Name    string  `json:"name"`
	Op      int     `json:"op"`
	Parent  int     `json:"parent"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

func (s spanRecord) ms() float64 { return s.EndMs - s.StartMs }

// recorder collects spans; the untraced run has none.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRecord
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 { return float64(time.Since(r.t0).Nanoseconds()) / 1e6 }

// start opens a span and returns its id for end and for children.
func (r *recorder) start(name string, parent, op int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRecord{Name: name, Op: op, Parent: parent, StartMs: r.now(), EndMs: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	now := r.now()
	r.mu.Lock()
	r.spans[id].EndMs = now
	r.mu.Unlock()
}

// do records f as one child span of parent.
func (r *recorder) do(name string, parent int, f func()) {
	id := r.start(name, parent, r.opOf(parent))
	f()
	r.end(id)
}

func (r *recorder) opOf(id int) int {
	if id < 0 {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].Op
}

// self is a span's duration minus the part its direct children cover.
func (r *recorder) self(id int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.spans[id].ms()
	for _, s := range r.spans {
		if s.Parent == id {
			d -= s.ms()
		}
	}
	return d
}

// childSum totals the direct children of every span called name.
func (r *recorder) childSum(name string) float64 {
	var total float64
	for _, id := range r.ids(name) {
		total += r.spans[id].ms() - r.self(id)
	}
	return total
}

// durations returns the length in ms of every finished span called name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.EndMs >= 0 {
			out = append(out, s.ms())
		}
	}
	return out
}

// ids returns the ids of every span called name.
func (r *recorder) ids(name string) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for i, s := range r.spans {
		if s.Name == name {
			out = append(out, i)
		}
	}
	return out
}

// writeNDJSON dumps every span, one JSON object per line.
func (r *recorder) writeNDJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
