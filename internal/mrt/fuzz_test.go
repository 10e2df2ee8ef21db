package mrt

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
)

// pristineStream is a small valid stream through every record type: a
// peer index with a 2-byte and a 4-byte peer, then RIB and TABLE_DUMP
// records for eight prefixes.
func pristineStream(t testing.TB) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1234)
	peers := []PeerEntry{
		{BGPID: 1, IP: 0x01010101, AS: 701, AS4: false},
		{BGPID: 2, IP: 0x02020202, AS: 3356, AS4: true},
	}
	if err := w.WritePeerIndex(9, "fuzz", peers); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		prefix := netx.Prefix{Addr: uint32(i) << 20, Len: 20}
		path := bgp.Path{701, bgp.ASN(1000 + i)}
		entry := TableEntry{PeerAS: 701, Route: &bgp.Route{
			Prefix: prefix, Path: path, LocalPref: 100,
			Communities: bgp.NewCommunities(bgp.MakeCommunity(701, uint16(i))),
		}}
		if err := w.WriteRIB(prefix, []TableEntry{entry}); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteTableDump(entry); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// corrupted flips 1–8 random bytes of a copy of stream.
func corrupted(stream []byte, rng *rand.Rand) []byte {
	corrupt := append([]byte(nil), stream...)
	flips := 1 + rng.Intn(8)
	for i := 0; i < flips; i++ {
		pos := rng.Intn(len(corrupt))
		corrupt[pos] ^= byte(1 + rng.Intn(255))
	}
	return corrupt
}

// TestCorruptionNeverPanics flips random bytes in valid streams and
// checks the reader either errors cleanly or returns records — never
// panics, never loops forever, never over-allocates. This is the
// failure-injection guard for the only binary parser in the repo.
func TestCorruptionNeverPanics(t *testing.T) {
	pristine := pristineStream(t)

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		// Must terminate without panicking; errors are expected.
		recs, err := ReadAll(bytes.NewReader(corrupted(pristine, rng)))
		_ = recs
		_ = err
	}
	// Truncation at every byte boundary as well.
	for cut := 0; cut < len(pristine); cut += 7 {
		if _, err := ReadAll(bytes.NewReader(pristine[:cut])); err == nil && cut%13 == 0 {
			// Cuts at record boundaries parse cleanly; anything else
			// must error. Both are fine — the invariant is termination.
			continue
		}
	}
}

// reencode writes decoded records back through the Writer, stamped with
// the first record's timestamp. It fails where the Writer does: a RIB
// entry whose peer the index does not cover.
func reencode(recs []Record) ([]byte, error) {
	var buf bytes.Buffer
	var w *Writer
	for _, rec := range recs {
		var err error
		switch rec := rec.(type) {
		case *PeerIndexRecord:
			if w == nil {
				w = NewWriter(&buf, rec.Header.Timestamp)
			}
			err = w.WritePeerIndex(rec.CollectorID, rec.ViewName, rec.Peers)
		case *RIBRecord:
			if w == nil {
				w = NewWriter(&buf, rec.Header.Timestamp)
			}
			err = w.WriteRIB(rec.Prefix, rec.Entries)
		case *TableDumpRecord:
			if w == nil {
				w = NewWriter(&buf, rec.Header.Timestamp)
			}
			err = w.WriteTableDump(rec.Entry)
		}
		if err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// FuzzReadAll: ReadAll never panics on any bytes — MRT files are handed
// to us by users — and a valid stream survives the codec unchanged: what
// the Writer makes of any accepted input decodes, and re-encodes to the
// same bytes.
func FuzzReadAll(f *testing.F) {
	pristine := pristineStream(f)
	f.Add(pristine)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 16; i++ {
		f.Add(corrupted(pristine, rng))
	}
	for cut := 0; cut < len(pristine); cut += 37 {
		f.Add(pristine[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		valid, err := reencode(recs)
		if err != nil {
			return
		}
		again, err := ReadAll(bytes.NewReader(valid))
		if err != nil {
			t.Fatalf("the Writer's own stream does not decode: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("%d records written, %d read back", len(recs), len(again))
		}
		twice, err := reencode(again)
		if err != nil {
			t.Fatalf("a decoded valid stream does not re-encode: %v", err)
		}
		if !bytes.Equal(twice, valid) {
			t.Fatal("a valid stream did not re-encode byte-identically")
		}
	})
}
