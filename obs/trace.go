package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Trace collects the spans of one request. It is attached to a context
// by WithTrace at the server edge (only when the caller asked, e.g.
// ?trace=1), so the un-traced hot path carries a nil trace and every
// span call short-circuits on a nil check.
type Trace struct {
	ID    string
	start time.Time

	mu    sync.Mutex
	spans []SpanRecord
}

// SpanRecord is one finished span, with times relative to the trace
// start so the NDJSON dump reads as a waterfall.
type SpanRecord struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// Note is what the span's owner had to say about it ("memo hit").
	Note    string  `json:"note,omitempty"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
}

type traceKey struct{}

var traceSeq atomic.Uint64

// NextID returns a process-unique request/trace ID. IDs are sequential
// per process start — enough to correlate log lines with trace dumps
// without pulling in crypto/rand on every request.
func NextID() string {
	n := traceSeq.Add(1)
	return "r" + itoa(n)
}

func itoa(n uint64) string {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return string(buf[i:])
}

// WithTrace attaches a new Trace to ctx and returns both.
func WithTrace(ctx context.Context, id string) (context.Context, *Trace) {
	tr := &Trace{ID: id, start: time.Now()}
	return context.WithValue(ctx, traceKey{}, tr), tr
}

// traceFrom returns the Trace attached to ctx, or nil.
func traceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// Span is an in-flight timed phase. The zero value and nil are inert:
// StartSpan on an un-traced context returns nil and End on nil is a
// no-op, so instrumented call sites never branch on "is tracing on".
type Span struct {
	tr     *Trace
	name   string
	parent string
	note   string
	start  time.Time
}

type spanKey struct{}

// StartSpan opens a span named name under the trace (and parent span)
// carried by ctx. The returned context parents nested spans. Without a
// trace attached it returns ctx unchanged and a nil span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	tr := traceFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	parent := ""
	if p, _ := ctx.Value(spanKey{}).(*Span); p != nil {
		parent = p.name
	}
	s := &Span{tr: tr, name: name, parent: parent, start: time.Now()}
	return context.WithValue(ctx, spanKey{}, s), s
}

// Note annotates the span before it ends — why it was as short or as
// long as it was. Safe on nil.
func (s *Span) Note(note string) {
	if s != nil {
		s.note = note
	}
}

// End records the span. Safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	rec := SpanRecord{
		Name:    s.name,
		Parent:  s.parent,
		Note:    s.note,
		StartMs: float64(s.start.Sub(s.tr.start).Microseconds()) / 1000,
		DurMs:   float64(time.Since(s.start).Microseconds()) / 1000,
	}
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, rec)
	s.tr.mu.Unlock()
}

// Records returns the finished spans in End order.
func (t *Trace) Records() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// WriteNDJSON writes one JSON object per finished span plus a final
// summary line carrying the trace ID and total duration.
func (t *Trace) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range t.Records() {
		line := struct {
			Trace string `json:"trace"`
			SpanRecord
		}{Trace: t.ID, SpanRecord: rec}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return enc.Encode(struct {
		Trace   string  `json:"trace"`
		TotalMs float64 `json:"total_ms"`
		Spans   int     `json:"spans"`
	}{t.ID, float64(time.Since(t.start).Microseconds()) / 1000, len(t.spans)})
}
