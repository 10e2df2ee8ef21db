package bgp

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Community is an RFC 1997 BGP community value: the high 16 bits are
// conventionally an ASN, the low 16 bits an operator-defined value.
type Community uint32

// Well-known communities (RFC 1997).
const (
	// NoExport: routes carrying it must not be advertised outside the
	// receiving AS.
	NoExport Community = 0xFFFFFF01
	// NoAdvertise: routes carrying it must not be advertised to any peer.
	NoAdvertise Community = 0xFFFFFF02
	// NoExportSubconfed: not used by the model, present for parsing.
	NoExportSubconfed Community = 0xFFFFFF03
)

// MakeCommunity builds a community from its AS and value halves.
func MakeCommunity(asn ASN, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// AS returns the high 16 bits interpreted as an ASN.
func (c Community) AS() ASN { return ASN(c >> 16) }

// Value returns the low 16 bits.
func (c Community) Value() uint16 { return uint16(c) }

// IsWellKnown reports whether c is one of the RFC 1997 reserved values.
func (c Community) IsWellKnown() bool {
	return c == NoExport || c == NoAdvertise || c == NoExportSubconfed
}

// String renders c in the "AS:value" form used by router CLIs, or the
// conventional name for well-known values.
func (c Community) String() string {
	switch c {
	case NoExport:
		return "no-export"
	case NoAdvertise:
		return "no-advertise"
	case NoExportSubconfed:
		return "no-export-subconfed"
	}
	return strconv.FormatUint(uint64(c>>16), 10) + ":" + strconv.FormatUint(uint64(c&0xffff), 10)
}

// ParseCommunity parses "AS:value" or a well-known name.
func ParseCommunity(s string) (Community, error) {
	switch s {
	case "no-export":
		return NoExport, nil
	case "no-advertise":
		return NoAdvertise, nil
	case "no-export-subconfed":
		return NoExportSubconfed, nil
	}
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return 0, fmt.Errorf("bgp: bad community %q", s)
	}
	hi, err := strconv.ParseUint(s[:colon], 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bgp: bad community %q: %v", s, err)
	}
	lo, err := strconv.ParseUint(s[colon+1:], 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bgp: bad community %q: %v", s, err)
	}
	return Community(uint32(hi)<<16 | uint32(lo)), nil
}

// Communities is an attribute set of community values. It is kept sorted
// and deduplicated by the constructors so comparisons are deterministic.
type Communities []Community

// NewCommunities builds a normalized set from vals.
func NewCommunities(vals ...Community) Communities {
	if len(vals) == 0 {
		return nil
	}
	out := append(Communities(nil), vals...)
	slices.Sort(out)
	dst := out[:1]
	for _, c := range out[1:] {
		if c != dst[len(dst)-1] {
			dst = append(dst, c)
		}
	}
	return dst
}

// Has reports whether c is in the set.
func (cs Communities) Has(c Community) bool {
	i := sort.Search(len(cs), func(i int) bool { return cs[i] >= c })
	return i < len(cs) && cs[i] == c
}

// Add returns a normalized set including c. The receiver is not mutated.
func (cs Communities) Add(c Community) Communities {
	if cs.Has(c) {
		return cs
	}
	return NewCommunities(append(cs.Clone(), c)...)
}

// Clone returns an independent copy.
func (cs Communities) Clone() Communities {
	if cs == nil {
		return nil
	}
	return append(Communities(nil), cs...)
}

// String renders the set space-separated, the way IOS prints it.
func (cs Communities) String() string {
	var b strings.Builder
	for i, c := range cs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(c.String())
	}
	return b.String()
}

// ParseCommunities parses a space-separated community list.
func ParseCommunities(s string) (Communities, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, nil
	}
	out := make([]Community, 0, len(fields))
	for _, f := range fields {
		c, err := ParseCommunity(f)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return NewCommunities(out...), nil
}
