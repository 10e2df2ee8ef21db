// Package netx provides compact IPv4 prefix types and a radix trie used
// throughout policyscope. Prefixes are stored as a (uint32 address, length)
// pair so that millions of routing-table entries stay cheap to copy, hash
// and compare. Only IPv4 is modelled: the reproduced paper (IMC 2003)
// predates meaningful IPv6 deployment and every table in it is IPv4.
package netx

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Prefix is an IPv4 CIDR block. The zero value is "0.0.0.0/0".
//
// The address is kept in canonical (masked) form by the constructors; a
// Prefix built from a composite literal is canonicalized lazily by the
// methods that require it.
type Prefix struct {
	// Addr is the network address in host byte order.
	Addr uint32
	// Len is the mask length, 0..32.
	Len uint8
}

// ErrBadPrefix is wrapped by all parse failures in this package.
var ErrBadPrefix = errors.New("netx: bad prefix")

// Mask returns the netmask of p as a uint32 (host byte order).
func Mask(length uint8) uint32 {
	if length == 0 {
		return 0
	}
	if length >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - length)
}

// MustParsePrefix parses s and panics on error. For tests and constants.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses "a.b.c.d/len" into a canonical Prefix. Host bits set
// beyond the mask are an error (routing tables never carry them).
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("%w: %q missing '/'", ErrBadPrefix, s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	n, err := strconv.Atoi(s[slash+1:])
	if err != nil || n < 0 || n > 32 {
		return Prefix{}, fmt.Errorf("%w: %q bad length", ErrBadPrefix, s)
	}
	p := Prefix{Addr: addr, Len: uint8(n)}
	if p.Addr&^Mask(p.Len) != 0 {
		return Prefix{}, fmt.Errorf("%w: %q has host bits set", ErrBadPrefix, s)
	}
	return p, nil
}

// ParseAddr parses a dotted-quad IPv4 address into host byte order.
func ParseAddr(s string) (uint32, error) {
	var a uint32
	part := 0
	val := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			if val < 0 {
				val = 0
			}
			val = val*10 + int(c-'0')
			if val > 255 {
				return 0, fmt.Errorf("%w: %q octet > 255", ErrBadPrefix, s)
			}
		case c == '.':
			if val < 0 || part == 3 {
				return 0, fmt.Errorf("%w: %q malformed", ErrBadPrefix, s)
			}
			a = a<<8 | uint32(val)
			val = -1
			part++
		default:
			return 0, fmt.Errorf("%w: %q bad character", ErrBadPrefix, s)
		}
	}
	if part != 3 || val < 0 {
		return 0, fmt.Errorf("%w: %q malformed", ErrBadPrefix, s)
	}
	return a<<8 | uint32(val), nil
}

// FormatAddr renders a host-byte-order IPv4 address as a dotted quad.
func FormatAddr(a uint32) string {
	var b [15]byte
	return string(appendAddr(b[:0], a))
}

func appendAddr(dst []byte, a uint32) []byte {
	for i := 3; i >= 0; i-- {
		dst = strconv.AppendUint(dst, uint64(a>>(8*i))&0xff, 10)
		if i > 0 {
			dst = append(dst, '.')
		}
	}
	return dst
}

// maxPrefixLen is the longest rendering, "255.255.255.255/32".
const maxPrefixLen = 18

// String renders p as "a.b.c.d/len".
func (p Prefix) String() string {
	var b [maxPrefixLen]byte
	out, _ := p.AppendText(b[:0])
	return string(out)
}

// AppendText implements encoding.TextAppender: it appends "a.b.c.d/len"
// to b, allocating only when b lacks the room.
func (p Prefix) AppendText(b []byte) ([]byte, error) {
	b = appendAddr(b, p.Addr&Mask(p.Len))
	b = append(b, '/')
	return strconv.AppendUint(b, uint64(p.Len), 10), nil
}

// MarshalText implements encoding.TextMarshaler, so prefixes serialize
// as "a.b.c.d/len" in JSON values and map keys alike. It makes one
// allocation, the returned slice.
func (p Prefix) MarshalText() ([]byte, error) {
	return p.AppendText(make([]byte, 0, maxPrefixLen))
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *Prefix) UnmarshalText(text []byte) error {
	parsed, err := ParsePrefix(string(text))
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// Canonical returns p with host bits cleared.
func (p Prefix) Canonical() Prefix {
	p.Addr &= Mask(p.Len)
	return p
}

// Contains reports whether p covers q: every address in q is in p and q is
// at least as specific. A prefix contains itself.
func (p Prefix) Contains(q Prefix) bool {
	if q.Len < p.Len {
		return false
	}
	return (q.Addr^p.Addr)&Mask(p.Len) == 0
}

// ContainsAddr reports whether the address a falls inside p.
func (p Prefix) ContainsAddr(a uint32) bool {
	return (a^p.Addr)&Mask(p.Len) == 0
}

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q) || q.Contains(p)
}

// Split returns the two halves of p (one bit more specific). It returns
// false if p is a /32 and cannot be split.
func (p Prefix) Split() (lo, hi Prefix, ok bool) {
	if p.Len >= 32 {
		return Prefix{}, Prefix{}, false
	}
	l := p.Len + 1
	lo = Prefix{Addr: p.Addr & Mask(p.Len), Len: l}
	hi = Prefix{Addr: lo.Addr | (1 << (32 - l)), Len: l}
	return lo, hi, true
}

// Parent returns the prefix one bit less specific than p. It returns false
// when p is the default route.
func (p Prefix) Parent() (Prefix, bool) {
	if p.Len == 0 {
		return Prefix{}, false
	}
	l := p.Len - 1
	return Prefix{Addr: p.Addr & Mask(l), Len: l}, true
}

// Sibling returns the other half of p's parent. ok is false for /0.
func (p Prefix) Sibling() (Prefix, bool) {
	if p.Len == 0 {
		return Prefix{}, false
	}
	return Prefix{Addr: p.Addr ^ (1 << (32 - p.Len)), Len: p.Len}.Canonical(), true
}

// Compare orders prefixes by address then by length (shorter first). It
// returns -1, 0 or +1.
func (p Prefix) Compare(q Prefix) int {
	pa, qa := p.Addr&Mask(p.Len), q.Addr&Mask(q.Len)
	switch {
	case pa < qa:
		return -1
	case pa > qa:
		return 1
	case p.Len < q.Len:
		return -1
	case p.Len > q.Len:
		return 1
	}
	return 0
}

// IsValid reports whether p is canonical (no host bits beyond the mask).
func (p Prefix) IsValid() bool {
	return p.Len <= 32 && p.Addr&^Mask(p.Len) == 0
}

// NumAddresses returns the number of addresses covered by p.
func (p Prefix) NumAddresses() uint64 {
	return 1 << (32 - uint(p.Len))
}

// SortPrefixes sorts ps in Compare order, in place, without allocating.
func SortPrefixes(ps []Prefix) {
	slices.SortFunc(ps, Prefix.Compare)
}

// Aggregate2 reports whether a and b are sibling halves that can be merged,
// returning the merged parent when they are.
func Aggregate2(a, b Prefix) (Prefix, bool) {
	if a.Len != b.Len || a.Len == 0 {
		return Prefix{}, false
	}
	pa, _ := a.Parent()
	pb, _ := b.Parent()
	if pa != pb || a.Canonical() == b.Canonical() {
		return Prefix{}, false
	}
	return pa, true
}
