package studyfmt

import (
	"encoding/binary"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
)

// Encode serializes s into a self-contained blob. Encoding is
// deterministic for a given Study: tables are written in slice order,
// entries in prefix Compare order (bgp.RIB.EachEntry), and the shared
// path/community regions assign IDs in first-encounter order.
func Encode(s *Study) ([]byte, error) {
	enc := &encoder{
		pathIDs: make(map[string]uint64),
		commIDs: make(map[string]uint64),
	}

	var sections [numSections][]byte
	sections[secConfig] = s.ConfigJSON
	sections[secTopo] = s.TopoCAIDA
	sections[secMRT] = s.MRT

	peers := make([]byte, 0, 2+4*len(s.Peers))
	peers = binary.AppendUvarint(peers, uint64(len(s.Peers)))
	for _, p := range s.Peers {
		peers = binary.AppendUvarint(peers, uint64(p))
	}
	sections[secPeers] = peers

	reach := make([]byte, 0, 2+8*len(s.Reach))
	reach = binary.AppendUvarint(reach, uint64(len(s.Reach)))
	for _, re := range s.Reach {
		reach = appendPrefix(reach, re.Prefix)
		reach = binary.AppendUvarint(reach, uint64(re.Count))
	}
	sections[secReach] = reach

	// Tables first: walking them populates the shared regions.
	var (
		tableData []byte
		tableIdx  []byte
	)
	tableIdx = binary.AppendUvarint(tableIdx, uint64(len(s.Tables)))
	for _, t := range s.Tables {
		start := len(tableData)
		numPrefixes := t.RIB.Len()
		numRoutes := t.RIB.NumRoutes()
		var err error
		t.RIB.EachEntry(func(prefix netx.Prefix, nbrs []bgp.ASN, routes []*bgp.Route, best *bgp.Route) {
			if err != nil {
				return
			}
			tableData, err = enc.appendEntry(tableData, prefix, nbrs, routes, best)
		})
		if err != nil {
			return nil, err
		}
		tableIdx = binary.AppendUvarint(tableIdx, uint64(t.Owner))
		kind := byte(0)
		if t.Collector {
			kind = 1
		}
		tableIdx = append(tableIdx, kind)
		tableIdx = binary.AppendUvarint(tableIdx, uint64(start))
		tableIdx = binary.AppendUvarint(tableIdx, uint64(len(tableData)-start))
		tableIdx = binary.AppendUvarint(tableIdx, uint64(numPrefixes))
		tableIdx = binary.AppendUvarint(tableIdx, uint64(numRoutes))
	}
	sections[secTableIndex] = tableIdx
	sections[secTableData] = tableData

	totalHops := 0
	for _, p := range enc.paths {
		totalHops += len(p)
	}
	pathsSec := make([]byte, 0, 4+5*totalHops)
	pathsSec = binary.AppendUvarint(pathsSec, uint64(len(enc.paths)))
	pathsSec = binary.AppendUvarint(pathsSec, uint64(totalHops))
	for _, p := range enc.paths {
		pathsSec = binary.AppendUvarint(pathsSec, uint64(len(p)))
		for _, a := range p {
			pathsSec = binary.AppendUvarint(pathsSec, uint64(a))
		}
	}
	sections[secPaths] = pathsSec

	totalMembers := 0
	for _, cs := range enc.comms {
		totalMembers += len(cs)
	}
	commsSec := make([]byte, 0, 4+5*totalMembers)
	commsSec = binary.AppendUvarint(commsSec, uint64(len(enc.comms)))
	commsSec = binary.AppendUvarint(commsSec, uint64(totalMembers))
	for _, cs := range enc.comms {
		commsSec = binary.AppendUvarint(commsSec, uint64(len(cs)))
		for _, c := range cs {
			commsSec = binary.AppendUvarint(commsSec, uint64(c))
		}
	}
	sections[secComms] = commsSec

	forest, err := encodeForest(s.Forest)
	if err != nil {
		return nil, err
	}
	sections[secForest] = forest

	// Assemble: header, directory, sections.
	total := headerSize
	for _, sec := range sections {
		total += len(sec)
	}
	blob := make([]byte, headerSize, total)
	copy(blob[0:4], magic[:])
	blob[4] = Version
	var flags byte
	if s.GroundTruth {
		flags |= flagGroundTruth
	}
	if len(s.TopoCAIDA) > 0 {
		flags |= flagTopoCAIDA
	}
	blob[5] = flags
	binary.LittleEndian.PutUint32(blob[8:12], s.Timestamp)
	off := uint64(headerSize)
	for i, sec := range sections {
		binary.LittleEndian.PutUint64(blob[16+8*i:], off)
		off += uint64(len(sec))
	}
	binary.LittleEndian.PutUint64(blob[16+8*numSections:], off)
	for _, sec := range sections {
		blob = append(blob, sec...)
	}
	return blob, nil
}

// encodeForest writes the forest section: row count, row length, then
// every cell in row order. No rows is an empty section.
func encodeForest(rows [][]int32) ([]byte, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	width := len(rows[0])
	// One byte per cell plus slack for the two-byte codes of the
	// best-connected ASes.
	b := make([]byte, 0, 16+len(rows)*width*9/8)
	b = binary.AppendUvarint(b, uint64(len(rows)))
	b = binary.AppendUvarint(b, uint64(width))
	for i, row := range rows {
		if len(row) != width || width == 0 {
			return nil, corrupt("forest row %d has %d cells, row 0 has %d", i, len(row), width)
		}
		for _, v := range row {
			if v < 0 {
				return nil, corrupt("forest row %d: negative code %d", i, v)
			}
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return b, nil
}

func appendPrefix(b []byte, p netx.Prefix) []byte {
	b = binary.AppendUvarint(b, uint64(p.Addr))
	return append(b, p.Len)
}

// encoder accumulates the deduplicated path/community regions while
// table entries are written.
type encoder struct {
	pathIDs map[string]uint64 // canonical key -> ID (1-based; 0 = empty)
	paths   []bgp.Path
	commIDs map[string]uint64
	comms   []bgp.Communities
	key     []byte
}

func (enc *encoder) pathID(p bgp.Path) uint64 {
	if len(p) == 0 {
		return 0
	}
	enc.key = bgp.AppendPathKey(enc.key[:0], p)
	if id, ok := enc.pathIDs[string(enc.key)]; ok {
		return id
	}
	enc.paths = append(enc.paths, p)
	id := uint64(len(enc.paths))
	enc.pathIDs[string(enc.key)] = id
	return id
}

func (enc *encoder) commID(cs bgp.Communities) uint64 {
	if len(cs) == 0 {
		return 0
	}
	enc.key = bgp.AppendCommunitiesKey(enc.key[:0], cs)
	if id, ok := enc.commIDs[string(enc.key)]; ok {
		return id
	}
	enc.comms = append(enc.comms, cs)
	id := uint64(len(enc.comms))
	enc.commIDs[string(enc.key)] = id
	return id
}

// appendEntry writes one prefix's entry: prefix, route count, best
// slot (1-based; 0 = none), then the routes in stored (ascending
// neighbor) order.
func (enc *encoder) appendEntry(b []byte, prefix netx.Prefix, nbrs []bgp.ASN, routes []*bgp.Route, best *bgp.Route) ([]byte, error) {
	b = appendPrefix(b, prefix)
	b = binary.AppendUvarint(b, uint64(len(routes)))
	bestSlot := uint64(0)
	if best != nil {
		for i, r := range routes {
			if r == best {
				bestSlot = uint64(i + 1)
				break
			}
		}
		if bestSlot == 0 {
			// best is not one of the candidate pointers (tables built
			// outside the simulator's capture path may clone); fall back
			// to value equality.
			for i, r := range routes {
				if routeValuesEqual(r, best) {
					bestSlot = uint64(i + 1)
					break
				}
			}
			if bestSlot == 0 {
				return nil, corrupt("entry %v: best route not among candidates", prefix)
			}
		}
	}
	b = binary.AppendUvarint(b, bestSlot)
	for i, r := range routes {
		b = binary.AppendUvarint(b, uint64(nbrs[i]))
		b = binary.AppendUvarint(b, enc.pathID(r.Path))
		b = binary.AppendUvarint(b, enc.commID(r.Communities))
		fl := byte(r.Origin) & 0x3
		if r.FromIBGP {
			fl |= 1 << 2
		}
		b = append(b, fl)
		b = binary.AppendUvarint(b, uint64(r.LocalPref))
		b = binary.AppendUvarint(b, uint64(r.MED))
		b = binary.AppendUvarint(b, uint64(r.NextHop))
		b = binary.AppendUvarint(b, uint64(r.IGPMetric))
		b = binary.AppendUvarint(b, uint64(r.RouterID))
	}
	return b, nil
}

func routeValuesEqual(a, b *bgp.Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Prefix != b.Prefix || !a.Path.Equal(b.Path) || a.NextHop != b.NextHop ||
		a.LocalPref != b.LocalPref || a.MED != b.MED || a.Origin != b.Origin ||
		a.FromIBGP != b.FromIBGP || a.IGPMetric != b.IGPMetric || a.RouterID != b.RouterID ||
		len(a.Communities) != len(b.Communities) {
		return false
	}
	for i := range a.Communities {
		if a.Communities[i] != b.Communities[i] {
			return false
		}
	}
	return true
}
