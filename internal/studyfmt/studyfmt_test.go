package studyfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
)

// buildStudy assembles a small but representative study: three tables
// (two vantages plus a collector) whose routes share AS paths and
// community sets across tables, non-trivial best selection, reach
// entries, peers, an embedded opaque topology blob, and a forest row per
// reach entry with one code that needs a second varint byte.
func buildStudy() *Study {
	mkRoute := func(p netx.Prefix, path bgp.Path, comms bgp.Communities, lp uint32) *bgp.Route {
		return &bgp.Route{
			Prefix:      p,
			Path:        path,
			Communities: comms,
			LocalPref:   lp,
			MED:         uint32(len(path)),
			NextHop:     0x0a000001 + uint32(path[0]),
			Origin:      bgp.OriginIGP,
			RouterID:    uint32(path[0]),
		}
	}
	p1 := netx.Prefix{Addr: 11 << 24, Len: 24}
	p2 := netx.Prefix{Addr: 11<<24 | 1<<8, Len: 24}
	pathA := bgp.Path{100, 200}
	pathB := bgp.Path{300, 200}
	comm := bgp.Communities{bgp.MakeCommunity(100, 7)}

	var tables []Table
	for i, owner := range []bgp.ASN{64512, 64513} {
		rib := bgp.NewRIB(owner)
		rib.Upsert(100, mkRoute(p1, pathA, comm, 120))
		rib.Upsert(300, mkRoute(p1, pathB, nil, 100+uint32(i)))
		rib.Upsert(100, mkRoute(p2, pathA, nil, 90))
		tables = append(tables, Table{Owner: owner, RIB: rib})
	}
	coll := bgp.NewRIB(6447)
	coll.Upsert(64512, mkRoute(p1, bgp.Path{64512, 100, 200}, comm, 100))
	coll.Upsert(64513, mkRoute(p2, bgp.Path{64513, 100, 200}, nil, 100))
	tables = append(tables, Table{Owner: 6447, Collector: true, RIB: coll})

	return &Study{
		ConfigJSON:  []byte(`{"ases":42}`),
		TopoCAIDA:   []byte("100|200|-1\n300|200|0\n"),
		GroundTruth: true,
		Timestamp:   1060000000,
		Peers:       []bgp.ASN{64512, 64513},
		Reach:       []ReachEntry{{Prefix: p1, Count: 5}, {Prefix: p2, Count: 3}},
		Tables:      tables,
		MRT:         nil,
		Forest:      [][]int32{{1, 2, 0, 300}, {3, 1, 2, 2}},
	}
}

// TestRoundTrip: encode → decode → re-encode must reproduce the exact
// blob (the encoding is deterministic, so byte-level idempotence is the
// strongest round-trip property), and the decoded structure must match
// field-for-field.
func TestRoundTrip(t *testing.T) {
	s := buildStudy()
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !h.GroundTruth || !h.TopoCAIDA || h.Timestamp != s.Timestamp {
		t.Fatalf("header: %+v", h)
	}
	if !bytes.Equal(h.ConfigJSON, s.ConfigJSON) || !bytes.Equal(h.Topo, s.TopoCAIDA) {
		t.Fatal("header config/topo sections diverged")
	}
	got, err := h.DecodeBody(DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tables) != len(s.Tables) {
		t.Fatalf("decoded %d tables, want %d", len(got.Tables), len(s.Tables))
	}
	for i, tab := range got.Tables {
		want := s.Tables[i]
		if tab.Owner != want.Owner || tab.Collector != want.Collector {
			t.Fatalf("table %d: owner/kind %v/%v", i, tab.Owner, tab.Collector)
		}
		if tab.RIB.Len() != want.RIB.Len() || tab.RIB.NumRoutes() != want.RIB.NumRoutes() {
			t.Fatalf("table %d: size diverged", i)
		}
	}
	if !reflect.DeepEqual(got.Forest, s.Forest) {
		t.Fatalf("forest decoded as %v, want %v", got.Forest, s.Forest)
	}
	reblob, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, reblob) {
		t.Fatal("re-encoding the decoded study changed bytes")
	}
}

// TestEncodeRejectsBadForest: ragged rows and negative codes are encode
// errors, not blobs no reader accepts.
func TestEncodeRejectsBadForest(t *testing.T) {
	for name, forest := range map[string][][]int32{
		"ragged":   {{1, 2}, {1}},
		"negative": {{1, -1}},
		"no cells": {{}},
	} {
		if _, err := Encode(&Study{Forest: forest}); !errors.Is(err, ErrFormat) {
			t.Errorf("%s forest: %v", name, err)
		}
	}
}

// TestDecodeRejectsBadForest: a forest section whose counts overrun its
// bytes, leave bytes over, or describe no cells is ErrFormat, and the
// count check runs before the slab is allocated.
func TestDecodeRejectsBadForest(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	for name, sec := range map[string][]byte{
		"rows overrun":   uv(3, 2, 1, 1, 1, 1),
		"huge counts":    uv(1<<40, 1<<40, 1),
		"trailing bytes": uv(1, 2, 1, 1, 1),
		"no rows":        uv(0, 2),
		"no cells":       uv(2, 0),
		"code too wide":  uv(1, 1, 1<<31),
		"torn varint":    append(uv(1, 2, 1), 0x80),
	} {
		if _, err := decodeForest(sec); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSharedRegionsDeduplicate: equal paths and community sets across
// tables must decode to shared slices, not per-route copies — the
// property the single paths/comms regions exist for.
func TestSharedRegionsDeduplicate(t *testing.T) {
	blob, err := Encode(buildStudy())
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.DecodeBody(DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The same {100 200} path appears in both vantage tables; decoded
	// routes must alias one backing slice.
	var seen []*bgp.ASN
	for _, tab := range got.Tables[:2] {
		tab.RIB.EachCandidate(func(_ netx.Prefix, _ bgp.ASN, r *bgp.Route) {
			if len(r.Path) == 2 && r.Path[0] == 100 {
				seen = append(seen, &r.Path[0])
			}
		})
	}
	if len(seen) < 2 {
		t.Fatalf("shared path appeared %d times", len(seen))
	}
	for _, p := range seen[1:] {
		if p != seen[0] {
			t.Fatal("equal paths decoded into distinct allocations")
		}
	}
}

// TestDecodeSharesIntern: a community set already canonicalized in the
// intern table must decode to that exact slice, and new sets must land
// in the table for later engine workers.
func TestDecodeSharesIntern(t *testing.T) {
	blob, err := Encode(buildStudy())
	if err != nil {
		t.Fatal(err)
	}
	in := bgp.NewIntern()
	canon := bgp.Communities{bgp.MakeCommunity(100, 7)}
	canon = in.InternCommunities(bgp.AppendCommunitiesKey(nil, canon), canon)

	h, err := DecodeHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.DecodeBody(DecodeOptions{Intern: in})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tab := range got.Tables {
		tab.RIB.EachCandidate(func(_ netx.Prefix, _ bgp.ASN, r *bgp.Route) {
			if len(r.Communities) == 1 && &r.Communities[0] == &canon[0] {
				found = true
			}
		})
	}
	if !found {
		t.Fatal("decoded community set does not alias the pre-interned canonical slice")
	}
}

func TestDecodeHeaderRejects(t *testing.T) {
	blob, err := Encode(buildStudy())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeHeader(blob[:headerSize-1]); !errors.Is(err, ErrFormat) {
		t.Fatalf("short blob: %v", err)
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := DecodeHeader(bad); !errors.Is(err, ErrFormat) {
		t.Fatalf("bad magic: %v", err)
	}
	ver := append([]byte(nil), blob...)
	ver[4] = Version + 1
	if _, err := DecodeHeader(ver); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: %v", err)
	}
	dir := append([]byte(nil), blob...)
	dir[16] = 0xff // first directory entry below headerSize / non-monotonic
	if _, err := DecodeHeader(dir); !errors.Is(err, ErrFormat) {
		t.Fatalf("broken directory: %v", err)
	}
}

// decodeAll runs the full two-phase decode, returning the first error.
func decodeAll(blob []byte) error {
	_, err := decodeStudy(blob)
	return err
}

// TestTruncationNeverPanics decodes every prefix of a valid blob: each
// must fail cleanly with a typed error (never panic, never succeed with
// a full-length blob's content).
func TestTruncationNeverPanics(t *testing.T) {
	blob, err := Encode(buildStudy())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(blob); i++ {
		err := decodeAll(blob[:i])
		if err == nil {
			t.Fatalf("truncation at %d of %d decoded successfully", i, len(blob))
		}
		if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrVersion) {
			t.Fatalf("truncation at %d: untyped error %v", i, err)
		}
	}
}

// TestByteFlipsNeverPanic flips every byte of a valid blob in turn; the
// decoder must survive each mutant (error or clean decode, no panic,
// and any error must be typed).
func TestByteFlipsNeverPanic(t *testing.T) {
	blob, err := Encode(buildStudy())
	if err != nil {
		t.Fatal(err)
	}
	mutant := make([]byte, len(blob))
	for i := 0; i < len(blob); i++ {
		copy(mutant, blob)
		mutant[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte flip at %d: panic %v", i, r)
				}
			}()
			if err := decodeAll(mutant); err != nil {
				if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrVersion) {
					t.Fatalf("byte flip at %d: untyped error %v", i, err)
				}
			}
		}()
	}
}

// TestEncodeRejectsForeignBest: a best route that is neither a candidate
// pointer nor value-equal to one must be an encode-time error, not a
// silently wrong blob.
func TestEncodeRejectsForeignBest(t *testing.T) {
	p := netx.Prefix{Addr: 11 << 24, Len: 24}
	rib := bgp.NewRIB(64512)
	rib.Upsert(100, &bgp.Route{Prefix: p, Path: bgp.Path{100}, LocalPref: 100})
	foreign := &bgp.Route{Prefix: p, Path: bgp.Path{999}, LocalPref: 50}
	rib.InstallOwned(p, nil, []bgp.ASN{100}, []*bgp.Route{rib.CandidateFrom(p, 100)}, foreign)
	_, err := Encode(&Study{Tables: []Table{{Owner: 64512, RIB: rib}}})
	if err == nil {
		t.Fatal("foreign best route encoded")
	}
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("untyped error: %v", err)
	}
}

// TestEmptyStudy: a study with no tables, peers or reach entries still
// round-trips (the smallest valid blob).
func TestEmptyStudy(t *testing.T) {
	s := &Study{ConfigJSON: []byte(`{}`)}
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.DecodeBody(DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tables) != 0 || len(got.Peers) != 0 || len(got.Reach) != 0 {
		t.Fatalf("empty study decoded as %+v", got)
	}
}

// TestParallelDecodeMatchesSerial: the worker count cannot change the
// decoded content.
func TestParallelDecodeMatchesSerial(t *testing.T) {
	blob, err := Encode(buildStudy())
	if err != nil {
		t.Fatal(err)
	}
	decode := func(par int) string {
		h, err := DecodeHeader(blob)
		if err != nil {
			t.Fatal(err)
		}
		s, err := h.DecodeBody(DecodeOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		re, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", re)
	}
	want := decode(1)
	for _, par := range []int{2, 8} {
		if got := decode(par); got != want {
			t.Fatalf("parallelism %d changed decoded content", par)
		}
	}
}
