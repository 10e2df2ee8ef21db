package relfile_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/relfile"
)

// TestRoundTripProperty: random record sets survive Write→Read→Write
// byte-identically, across several seeds.
func TestRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(200)
		recs := make([]relfile.Record, 0, n)
		seen := map[[2]bgp.ASN]bool{}
		for len(recs) < n {
			a := bgp.ASN(1 + rng.Intn(5000))
			b := bgp.ASN(1 + rng.Intn(5000))
			if a == b {
				continue
			}
			key := [2]bgp.ASN{a, b}
			if a > b {
				key = [2]bgp.ASN{b, a}
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			code := []int{relfile.CodeProviderCustomer, relfile.CodePeer, relfile.CodeSibling}[rng.Intn(3)]
			if code != relfile.CodeProviderCustomer && a > b {
				a, b = b, a // canonical smaller-first for symmetric edges
			}
			recs = append(recs, relfile.Record{A: a, B: b, Code: code})
		}

		var first bytes.Buffer
		n1, err := relfile.Write(&first, recs)
		if err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		if n1 != int64(first.Len()) {
			t.Fatalf("seed %d: Write reported %d bytes, wrote %d", seed, n1, first.Len())
		}
		parsed, err := relfile.Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: read: %v", seed, err)
		}
		if len(parsed) != len(recs) {
			t.Fatalf("seed %d: wrote %d records, read %d", seed, len(recs), len(parsed))
		}
		for i := range parsed {
			want := recs[i]
			want.Line = parsed[i].Line
			if parsed[i] != want {
				t.Fatalf("seed %d: record %d: got %+v want %+v", seed, i, parsed[i], want)
			}
		}
		var second bytes.Buffer
		if _, err := relfile.Write(&second, parsed); err != nil {
			t.Fatalf("seed %d: rewrite: %v", seed, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("seed %d: round trip not byte-identical", seed)
		}
	}
}

// TestReadTolerance: comments, blanks, and extra serial-2 fields parse.
func TestReadTolerance(t *testing.T) {
	in := "# source: test\n\n10|20|-1|bgp\n1|2|0\n3|4|1\n"
	recs, err := relfile.Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []relfile.Record{
		{A: 10, B: 20, Code: relfile.CodeProviderCustomer, Line: 3},
		{A: 1, B: 2, Code: relfile.CodePeer, Line: 4},
		{A: 3, B: 4, Code: relfile.CodeSibling, Line: 5},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, recs[i], want[i])
		}
	}
}

// TestReadErrors: malformed lines fail with the offending line number.
func TestReadErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"1|2\n", "line 1"},
		{"x|2|0\n", "bad ASN"},
		{"1|y|0\n", "bad ASN"},
		{"1|2|z\n", "bad code"},
		{"1|2|7\n", "unknown relationship code"},
	}
	for _, tc := range cases {
		if _, err := relfile.Read(strings.NewReader(tc.in)); err == nil {
			t.Fatalf("input %q: expected error", tc.in)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("input %q: error %q does not mention %q", tc.in, err, tc.want)
		}
	}
}

// TestGraphDelegation: a graph round-tripped through its serializer and
// relfile directly agree byte for byte.
func TestGraphDelegation(t *testing.T) {
	g := asgraph.New()
	if err := g.AddProviderCustomer(7018, 701); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPeer(701, 1239); err != nil {
		t.Fatal(err)
	}
	if err := g.AddSibling(7018, 7132); err != nil {
		t.Fatal(err)
	}
	var viaGraph, viaRecs bytes.Buffer
	if _, err := g.WriteTo(&viaGraph); err != nil {
		t.Fatal(err)
	}
	if _, err := relfile.Write(&viaRecs, g.Records()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaGraph.Bytes(), viaRecs.Bytes()) {
		t.Fatalf("Graph.WriteTo %q != relfile.Write(Records()) %q", viaGraph.String(), viaRecs.String())
	}
	back, err := asgraph.Read(bytes.NewReader(viaGraph.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := back.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaGraph.Bytes(), again.Bytes()) {
		t.Fatalf("graph round trip not byte-identical:\n%s\nvs\n%s", viaGraph.String(), again.String())
	}
}

// FuzzRead: Read never panics on any bytes — as-rel files come from
// users and from CAIDA — and whatever it accepts survives Write → Read:
// the same relationships in the same order, whatever comments, blank
// lines and trailing fields the input carried.
func FuzzRead(f *testing.F) {
	f.Add([]byte("# source: test\n\n10|20|-1|bgp\n1|2|0\n3|4|1\n"))
	f.Add([]byte("4294967295|0|-1\r\n  7018|701|0  \n"))
	f.Add([]byte("1|2\n"))
	f.Add([]byte("1|2|7\n"))
	f.Add([]byte("x|2|0\n"))
	f.Add([]byte("1|2|+1|\n#"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := relfile.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := relfile.Write(&out, recs); err != nil {
			t.Fatal(err)
		}
		again, err := relfile.Read(&out)
		if err != nil {
			t.Fatalf("Read refuses what Write made of accepted input: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("%d records written, %d read back", len(recs), len(again))
		}
		for i, rec := range recs {
			if got := again[i]; got.A != rec.A || got.B != rec.B || got.Code != rec.Code {
				t.Fatalf("record %d: wrote %v, read back %v", i, rec, got)
			}
		}
	})
}
