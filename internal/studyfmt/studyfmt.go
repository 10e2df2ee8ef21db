// Package studyfmt defines the flat binary study format — the payload
// of the dataset cache. It replaces the gob encoding the cache used
// through PR 5 with a sectioned, offset-indexed layout built for the
// load path of internet-scale graphs:
//
//   - a fixed header (magic, version byte, flags, timestamp) that a
//     reader validates before touching anything else, so stale or
//     corrupt blobs fall through to regeneration cheaply;
//   - a section directory of absolute offsets, so a reader seeks
//     straight to what it needs (DecodeHeader parses only the header,
//     config and topology sections — the parts cache staleness checks
//     and concurrent topology regeneration consume — without decoding
//     a single route);
//   - one deduplicated region each for AS paths and community sets,
//     referenced by varint IDs from the route entries, so the
//     attribute sharing the simulator's intern layer establishes
//     survives serialization instead of being re-expanded per route;
//   - a per-table index (owner, offsets, entry counts) over one
//     varint-packed table-data section, sized so the decoder
//     preallocates exact-length arenas per table and installs entries
//     through bgp.RIB's bulk path (InstallOwned) with zero per-route
//     map or slice growth, and decodes tables in parallel;
//   - a forest section: per prefix, every AS's best next hop as a small
//     code (see Study.Forest), about one byte per (prefix, AS), so a
//     reader rebuilds the what-if engine without converging anything.
//
// The format is deliberately position-independent and append-only in
// spirit: every section is located via the directory, unknown trailing
// bytes are ignored, and any structural violation surfaces as
// ErrFormat (wrapped), which the cache treats as "regenerate".
package studyfmt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
)

// Version is the format version this package reads and writes. Readers
// reject other versions with ErrVersion. Version 2 added the forest
// section (and with it one more directory entry, so a version-1 reader
// of a version-2 blob, or the reverse, would misplace every section —
// the version check runs before the directory is read).
const Version = 2

// ErrFormat reports a structurally invalid blob (bad magic, truncated
// section, offset out of bounds, overdrawn count). Every decode error
// of this package wraps it (or ErrVersion), so callers can treat the
// whole class as "regenerate from source".
var ErrFormat = errors.New("studyfmt: malformed study blob")

// ErrVersion reports a blob written by a different format version.
var ErrVersion = errors.New("studyfmt: unsupported format version")

var magic = [4]byte{'P', 'S', 'S', 'F'}

// Header flag bits.
const (
	flagGroundTruth = 1 << 0 // the study carries a ground-truth topology
	flagTopoCAIDA   = 1 << 1 // the topo section holds a CAIDA-format graph
)

// Section indices of the directory, in file order.
const (
	secConfig     = iota // study configuration, raw JSON
	secTopo              // opaque topology descriptor (CAIDA graph bytes, or empty)
	secPeers             // collector peer ASNs
	secReach             // per-prefix AS-level reach counts
	secPaths             // deduplicated AS-path region
	secComms             // deduplicated community-set region
	secTableIndex        // per-table directory over the table-data section
	secTableData         // varint-packed RIB entries of every table
	secMRT               // raw MRT bytes of MRT-sourced studies (or empty)
	secForest            // per-prefix best-next-hop rows (or empty)
	numSections
)

// headerSize is the fixed prefix: 16 bytes of header proper plus the
// section directory ((numSections+1) uint64 offsets; entry i is the
// absolute start of section i, entry numSections the end of the last).
const headerSize = 16 + (numSections+1)*8

// Table is one routing table of a study: a vantage (collector-peer)
// table, or the collector's own merged table when Collector is set.
// The distinction matters because a peer ASN could in principle equal
// the collector ASN; kind, not owner, disambiguates.
type Table struct {
	Owner     bgp.ASN
	Collector bool
	RIB       *bgp.RIB
}

// ReachEntry is one prefix's AS-level reach count.
type ReachEntry struct {
	Prefix netx.Prefix
	Count  int
}

// Study is the decoded (or to-be-encoded) content of a blob. Encode
// requires Tables sorted in the order they should appear; the cache
// writes vantage tables ascending by owner followed by the collector
// table, and Decode returns them in stored order.
type Study struct {
	// ConfigJSON is the study configuration, JSON-encoded by the caller
	// (the format does not interpret it).
	ConfigJSON []byte
	// TopoCAIDA, when non-empty, is the topology's CAIDA-format
	// relationship-file serialization; empty means the topology is
	// regenerated from the configuration.
	TopoCAIDA []byte
	// GroundTruth marks studies carrying a ground-truth topology.
	GroundTruth bool
	// Timestamp is the snapshot timestamp.
	Timestamp uint32
	// Peers are the collector peer ASNs, ascending.
	Peers []bgp.ASN
	// Reach holds per-prefix reach counts in prefix Compare order.
	Reach []ReachEntry
	// Tables holds every serialized routing table.
	Tables []Table
	// MRT is the raw MRT path/bytes of MRT-sourced studies (the cache
	// stores the source path here), empty otherwise.
	MRT []byte
	// Forest is the converged best forest, or nil: row i belongs to
	// Reach[i].Prefix and holds one non-negative code per AS of the
	// topology, all rows equally long. The format packs the codes as
	// varints and does not interpret them; the writer chooses codes that
	// are small where it matters (simulate.Engine.ForestSlots names a next
	// hop by its position in the AS's adjacency, which fits one byte for
	// all but the best-connected ASes).
	Forest [][]int32
}

// corrupt builds an ErrFormat-wrapped error.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
}

// reader is a bounds-checked cursor over one section's bytes. All
// accessors return an error instead of panicking, so corrupt blobs
// surface as ErrFormat.
type reader struct {
	b   []byte
	off int
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, corrupt("bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// count reads a varint element count and validates it against the
// bytes left in the section (each element costs at least minBytes), so
// a corrupt count can never drive a huge allocation.
func (r *reader) count(minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(r.remaining()/minBytes) {
		return 0, corrupt("count %d overruns section (%d bytes left)", v, r.remaining())
	}
	return int(v), nil
}

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, corrupt("unexpected end of section")
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *reader) u32() (uint32, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > 0xffffffff {
		return 0, corrupt("value %d exceeds 32 bits", v)
	}
	return uint32(v), nil
}

func (r *reader) prefix() (netx.Prefix, error) {
	addr, err := r.u32()
	if err != nil {
		return netx.Prefix{}, err
	}
	ln, err := r.byte()
	if err != nil {
		return netx.Prefix{}, err
	}
	if ln > 32 {
		return netx.Prefix{}, corrupt("prefix length %d", ln)
	}
	return netx.Prefix{Addr: addr, Len: ln}, nil
}
