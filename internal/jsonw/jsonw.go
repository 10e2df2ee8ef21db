// Package jsonw encodes response bodies into buffers that outlive the
// request. A body is encoded exactly as json.NewEncoder(w) with
// SetIndent("", "  ") would write it, but into a pooled bytes.Buffer and
// an Encoder bound to it once, so neither the encoder's indent buffer nor
// the output buffer is grown from zero again on the next request.
//
// The bytes are handed to a callback and are valid only during the call:
// the next body encoded into the same pair overwrites them. A caller that
// keeps a body copies it.
package jsonw

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
)

// maxPooled is the largest buffer capacity a pair may carry back into the
// pool. A pool keeps what it is given until the collector empties it, so
// one huge body (a sweep's worth of shifts, say) would otherwise pin its
// output buffer and an indent buffer of the same size long after the
// request that needed them. Larger pairs are left to the collector.
const maxPooled = 4 << 20

// pair is one output buffer and the encoder that writes into it.
type pair struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var pool = sync.Pool{New: func() any {
	p := new(pair)
	p.enc = json.NewEncoder(&p.buf)
	p.enc.SetIndent("", "  ")
	return p
}}

// Encode encodes v as json.NewEncoder(w) with SetIndent("", "  ") would
// write it to w — HTML escaping on, two-space indented, newline-terminated
// — and hands the bytes to use. On an encoding error use is not called.
func Encode(v any, use func([]byte)) error {
	return run(func(p *pair) error { return p.enc.Encode(v) }, use)
}

// Render hands write a pooled buffer and, when write succeeds, the bytes
// it wrote to use. On an error use is not called.
func Render(write func(io.Writer) error, use func([]byte)) error {
	return run(func(p *pair) error { return write(&p.buf) }, use)
}

func run(write func(*pair) error, use func([]byte)) error {
	p := pool.Get().(*pair)
	p.buf.Reset()
	if err := write(p); err != nil {
		// A pair that failed midway is dropped, not trusted again.
		return err
	}
	use(p.buf.Bytes())
	if p.buf.Cap() <= maxPooled {
		pool.Put(p)
	}
	return nil
}
