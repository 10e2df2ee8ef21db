package netx

import (
	"encoding"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestParsePrefix(t *testing.T) {
	cases := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{in: "10.0.0.0/8", want: "10.0.0.0/8"},
		{in: "0.0.0.0/0", want: "0.0.0.0/0"},
		{in: "255.255.255.255/32", want: "255.255.255.255/32"},
		{in: "192.168.4.0/22", want: "192.168.4.0/22"},
		{in: "12.0.0.0/19", want: "12.0.0.0/19"},
		{in: "12.10.1.0/24", want: "12.10.1.0/24"},
		{in: "10.0.0.1/8", wantErr: true}, // host bits set
		{in: "10.0.0.0/33", wantErr: true},
		{in: "10.0.0.0/-1", wantErr: true},
		{in: "10.0.0.0", wantErr: true},
		{in: "10.0.0/8", wantErr: true},
		{in: "10.0.0.256/32", wantErr: true},
		{in: "a.b.c.d/8", wantErr: true},
		{in: "10..0.0/8", wantErr: true},
		{in: "10.0.0.0.0/8", wantErr: true},
		{in: "/8", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, c := range cases {
		got, err := ParsePrefix(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParsePrefix(%q) = %v, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePrefix(%q) error: %v", c.in, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("ParsePrefix(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseAddr(t *testing.T) {
	a, err := ParseAddr("1.2.3.4")
	if err != nil {
		t.Fatal(err)
	}
	if a != 0x01020304 {
		t.Fatalf("ParseAddr = %#x, want 0x01020304", a)
	}
	if got := FormatAddr(a); got != "1.2.3.4" {
		t.Fatalf("FormatAddr = %q", got)
	}
	if _, err := ParseAddr("1.2.3"); err == nil {
		t.Fatal("want error for short address")
	}
	if _, err := ParseAddr("300.2.3.4"); err == nil {
		t.Fatal("want error for octet overflow")
	}
}

func TestContains(t *testing.T) {
	p8 := MustParsePrefix("12.0.0.0/8")
	p19 := MustParsePrefix("12.10.0.0/19")
	p24 := MustParsePrefix("12.10.1.0/24")
	other := MustParsePrefix("13.0.0.0/8")

	if !p8.Contains(p19) || !p8.Contains(p24) || !p19.Contains(p24) {
		t.Fatal("containment chain broken")
	}
	if p19.Contains(p8) {
		t.Fatal("/19 must not contain /8")
	}
	if p8.Contains(other) || other.Contains(p8) {
		t.Fatal("disjoint prefixes must not contain each other")
	}
	if !p8.Contains(p8) {
		t.Fatal("prefix must contain itself")
	}
	if !p8.Overlaps(p24) || !p24.Overlaps(p8) || p24.Overlaps(other) {
		t.Fatal("overlap misclassified")
	}
	if !p24.ContainsAddr(0x0c0a0101) {
		t.Fatal("ContainsAddr(12.10.1.1) = false")
	}
}

func TestSplitParentSibling(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	lo, hi, ok := p.Split()
	if !ok {
		t.Fatal("split failed")
	}
	if lo.String() != "10.0.0.0/9" || hi.String() != "10.128.0.0/9" {
		t.Fatalf("split = %v, %v", lo, hi)
	}
	if par, ok := lo.Parent(); !ok || par != p {
		t.Fatalf("parent(%v) = %v", lo, par)
	}
	if sib, ok := lo.Sibling(); !ok || sib != hi {
		t.Fatalf("sibling(%v) = %v, want %v", lo, sib, hi)
	}
	if _, _, ok := MustParsePrefix("1.1.1.1/32").Split(); ok {
		t.Fatal("/32 must not split")
	}
	if _, ok := (Prefix{}).Parent(); ok {
		t.Fatal("/0 must not have a parent")
	}
	if _, ok := (Prefix{}).Sibling(); ok {
		t.Fatal("/0 must not have a sibling")
	}
	if m, ok := Aggregate2(lo, hi); !ok || m != p {
		t.Fatalf("Aggregate2 = %v, %v", m, ok)
	}
	if _, ok := Aggregate2(lo, lo); ok {
		t.Fatal("aggregating a prefix with itself must fail")
	}
	if _, ok := Aggregate2(lo, MustParsePrefix("11.0.0.0/9")); ok {
		t.Fatal("non-siblings must not aggregate")
	}
}

func TestCompareAndSort(t *testing.T) {
	ps := []Prefix{
		MustParsePrefix("10.0.0.0/9"),
		MustParsePrefix("9.0.0.0/8"),
		MustParsePrefix("10.0.0.0/8"),
	}
	SortPrefixes(ps)
	want := []string{"9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/9"}
	for i, w := range want {
		if ps[i].String() != w {
			t.Fatalf("sorted[%d] = %v, want %v", i, ps[i], w)
		}
	}
	if ps[0].Compare(ps[0]) != 0 {
		t.Fatal("Compare(self) != 0")
	}
}

func TestNumAddresses(t *testing.T) {
	if n := MustParsePrefix("10.0.0.0/8").NumAddresses(); n != 1<<24 {
		t.Fatalf("NumAddresses(/8) = %d", n)
	}
	if n := MustParsePrefix("1.1.1.1/32").NumAddresses(); n != 1 {
		t.Fatalf("NumAddresses(/32) = %d", n)
	}
	if n := (Prefix{}).NumAddresses(); n != 1<<32 {
		t.Fatalf("NumAddresses(/0) = %d", n)
	}
}

// randomPrefix draws a canonical prefix with length biased toward the
// 8..24 range seen in real tables.
func randomPrefix(r *rand.Rand) Prefix {
	l := uint8(8 + r.Intn(17)) // 8..24
	if r.Intn(10) == 0 {
		l = uint8(r.Intn(33)) // occasionally anything
	}
	return Prefix{Addr: r.Uint32() & Mask(l), Len: l}
}

func TestPropertyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		p := randomPrefix(r)
		q, err := ParsePrefix(p.String())
		return err == nil && q == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyContainmentPartialOrder(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	// Antisymmetry: mutual containment implies equality.
	anti := func() bool {
		p, q := randomPrefix(r), randomPrefix(r)
		if p.Contains(q) && q.Contains(p) {
			return p == q
		}
		return true
	}
	if err := quick.Check(anti, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatalf("antisymmetry: %v", err)
	}
	// Transitivity via parents: parent contains child, grandparent contains child.
	trans := func() bool {
		p := randomPrefix(r)
		par, ok := p.Parent()
		if !ok {
			return true
		}
		gp, ok := par.Parent()
		if !ok {
			return par.Contains(p)
		}
		return par.Contains(p) && gp.Contains(par) && gp.Contains(p)
	}
	if err := quick.Check(trans, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatalf("transitivity: %v", err)
	}
}

func TestPropertySplitInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		p := randomPrefix(r)
		lo, hi, ok := p.Split()
		if !ok {
			return p.Len == 32
		}
		if !p.Contains(lo) || !p.Contains(hi) {
			return false
		}
		if lo.Overlaps(hi) {
			return false
		}
		m, ok := Aggregate2(lo, hi)
		return ok && m == p.Canonical() &&
			lo.NumAddresses()+hi.NumAddresses() == p.NumAddresses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompareIsTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		p, q := randomPrefix(r), randomPrefix(r)
		pq, qp := p.Compare(q), q.Compare(p)
		if pq != -qp {
			return false
		}
		if pq == 0 {
			return p.Canonical() == q.Canonical()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskEdges(t *testing.T) {
	if Mask(0) != 0 {
		t.Fatal("Mask(0) != 0")
	}
	if Mask(32) != ^uint32(0) {
		t.Fatal("Mask(32) != all ones")
	}
	if Mask(8) != 0xff000000 {
		t.Fatalf("Mask(8) = %#x", Mask(8))
	}
	if Mask(33) != ^uint32(0) {
		t.Fatal("Mask(>32) must clamp")
	}
}

func TestIsValid(t *testing.T) {
	if !MustParsePrefix("10.0.0.0/8").IsValid() {
		t.Fatal("canonical prefix reported invalid")
	}
	if (Prefix{Addr: 1, Len: 8}).IsValid() {
		t.Fatal("host bits beyond mask reported valid")
	}
	if (Prefix{Len: 40}).IsValid() {
		t.Fatal("length > 32 reported valid")
	}
}

// textSink makes MarshalText's result escape, as it does in a JSON encoder.
var textSink []byte

var (
	_ interface {
		AppendText([]byte) ([]byte, error)
	} = Prefix{}
	_ encoding.TextMarshaler = Prefix{}
)

// TestPrefixTextRoundTrip: MarshalText, AppendText and String agree and
// ParsePrefix reads them back, for every length over sampled addresses;
// MarshalText allocates its result only, and AppendText into a buffer
// with room allocates nothing.
func TestPrefixTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	addrs := []uint32{0, ^uint32(0), 0x0a000000, 0xc0a80401}
	for i := 0; i < 64; i++ {
		addrs = append(addrs, rng.Uint32())
	}
	buf := make([]byte, 0, 64)
	for l := uint8(0); l <= 32; l++ {
		for _, a := range addrs {
			p := Prefix{Addr: a, Len: l}.Canonical()
			text, err := p.MarshalText()
			if err != nil {
				t.Fatal(err)
			}
			s := p.String()
			if string(text) != s {
				t.Fatalf("%v: MarshalText %q, String %q", p, text, s)
			}
			buf, _ = p.AppendText(append(buf[:0], "x="...))
			if string(buf) != "x="+s {
				t.Fatalf("%v: AppendText wrote %q after its prefix", p, buf)
			}
			back, err := ParsePrefix(s)
			if err != nil || back != p {
				t.Fatalf("ParsePrefix(%q) = %v, %v; want %v", s, back, err, p)
			}
			var un Prefix
			if err := un.UnmarshalText(text); err != nil || un != p {
				t.Fatalf("UnmarshalText(%q) = %v, %v; want %v", text, un, err, p)
			}
		}
	}
	// Host bits beyond the mask are not rendered.
	if got := (Prefix{Addr: 0x0a0000ff, Len: 24}).String(); got != "10.0.0.0/24" {
		t.Fatalf("non-canonical prefix renders %q", got)
	}

	p := MustParsePrefix("255.255.255.255/32")
	if n := testing.AllocsPerRun(100, func() { textSink, _ = p.MarshalText() }); n != 1 {
		t.Fatalf("MarshalText makes %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = p.AppendText(buf[:0]) }); n != 0 {
		t.Fatalf("AppendText into a buffer with room makes %v allocations, want 0", n)
	}
}

// TestSortPrefixesMatchesSortSlice: SortPrefixes puts every list in the
// order sort.Slice with the same comparison put it in — ties included, so
// the lists carry exact duplicates and non-canonical prefixes that
// Compare ties with their canonical form — and allocates nothing.
func TestSortPrefixesMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(200)
		ps := make([]Prefix, n)
		for i := range ps {
			if i > 0 && rng.Intn(4) == 0 {
				ps[i] = ps[rng.Intn(i)] // an exact duplicate
				continue
			}
			l := uint8(8 + rng.Intn(3)*8)
			ps[i] = Prefix{Addr: uint32(rng.Intn(64)) << 24, Len: l}
			if rng.Intn(3) == 0 {
				ps[i].Addr |= uint32(rng.Intn(256)) // host bits: ties with its canonical form
			}
		}
		want := append([]Prefix(nil), ps...)
		sort.Slice(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })
		got := append([]Prefix(nil), ps...)
		SortPrefixes(got)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d prefixes): order differs from sort.Slice's:\n got %v\nwant %v", trial, n, got, want)
		}
	}
	ps := make([]Prefix, 64)
	for i := range ps {
		ps[i] = Prefix{Addr: uint32(rng.Uint32()), Len: 24}
	}
	scratch := make([]Prefix, len(ps))
	if allocs := testing.AllocsPerRun(100, func() {
		copy(scratch, ps)
		SortPrefixes(scratch)
	}); allocs != 0 {
		t.Fatalf("SortPrefixes allocates %.1f times per call", allocs)
	}
}
