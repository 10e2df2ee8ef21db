package studyfmt

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// FuzzDecode holds the decoder to its contract on arbitrary bytes: it
// never panics; it fails only with ErrFormat or ErrVersion; what it
// allocates is bounded by the input's length (a count is checked against
// the bytes left before anything is sized by it); and what it accepts is
// a study Encode can write, whose encoding decodes to the same encoding
// again. (Byte equality with the accepted input itself holds for
// Encode's own output — TestRoundTrip — not for every accepted input:
// the reader tolerates directory gaps, trailing bytes, non-minimal
// varints and unused region entries, which Encode never writes.)
func FuzzDecode(f *testing.F) {
	full, err := Encode(buildStudy())
	if err != nil {
		f.Fatal(err)
	}
	bare := buildStudy()
	bare.Forest = nil
	noForest, err := Encode(bare)
	if err != nil {
		f.Fatal(err)
	}
	empty, err := Encode(&Study{ConfigJSON: []byte(`{}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(noForest)
	f.Add(empty)
	f.Add(full[:len(full)-3])
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-2] ^= 0xff // inside the forest section
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, blob []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := decodeStudy(blob)
		runtime.ReadMemStats(&after)
		// The widest amplification is a region's slice header per one-byte
		// entry (24x) and a Route per nine-byte table record; the constant
		// covers the worker goroutine and the fuzz engine's own allocation.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(blob)+1<<20); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(blob), grew, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrVersion) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		once, err := Encode(s)
		if err != nil {
			t.Fatalf("accepted study does not encode: %v", err)
		}
		s2, err := decodeStudy(once)
		if err != nil {
			t.Fatalf("re-encoded study does not decode: %v", err)
		}
		twice, err := Encode(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatal("encode(decode(x)) is not a fixed point of decode-then-encode")
		}
	})
}

// decodeStudy runs the full two-phase decode on one worker.
func decodeStudy(blob []byte) (*Study, error) {
	h, err := DecodeHeader(blob)
	if err != nil {
		return nil, err
	}
	return h.DecodeBody(DecodeOptions{Parallelism: 1})
}
