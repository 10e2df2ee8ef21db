package studyfmt

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/policyscope/policyscope/internal/bgp"
)

// Header is the cheaply-decoded prefix of a blob: everything a reader
// needs before committing to a full body decode. The cache uses it to
// validate version/flags and to kick off topology regeneration (from
// ConfigJSON / Topo) concurrently with DecodeBody.
type Header struct {
	// Version is the blob's format version (always == Version once
	// DecodeHeader succeeded).
	Version byte
	// GroundTruth mirrors the header flag.
	GroundTruth bool
	// Timestamp is the snapshot timestamp.
	Timestamp uint32
	// ConfigJSON aliases the blob's config section.
	ConfigJSON []byte
	// Topo aliases the blob's topology descriptor section (CAIDA graph
	// bytes when TopoCAIDA, empty otherwise).
	Topo []byte
	// TopoCAIDA mirrors the header flag.
	TopoCAIDA bool

	blob []byte
	dir  [numSections + 1]uint64
}

// DecodeHeader validates the fixed header and section directory of
// blob and returns a Header ready for DecodeBody. The returned header
// aliases blob; the caller must keep blob immutable.
func DecodeHeader(blob []byte) (*Header, error) {
	if len(blob) < headerSize {
		return nil, corrupt("blob too short (%d bytes)", len(blob))
	}
	if [4]byte(blob[0:4]) != magic {
		return nil, corrupt("bad magic %q", blob[0:4])
	}
	if blob[4] != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, blob[4], Version)
	}
	h := &Header{
		Version:     blob[4],
		GroundTruth: blob[5]&flagGroundTruth != 0,
		TopoCAIDA:   blob[5]&flagTopoCAIDA != 0,
		Timestamp:   binary.LittleEndian.Uint32(blob[8:12]),
		blob:        blob,
	}
	prev := uint64(headerSize)
	for i := 0; i <= numSections; i++ {
		off := binary.LittleEndian.Uint64(blob[16+8*i:])
		if off < prev || off > uint64(len(blob)) {
			return nil, corrupt("section directory entry %d out of order (%d)", i, off)
		}
		h.dir[i] = off
		prev = off
	}
	h.ConfigJSON = h.section(secConfig)
	h.Topo = h.section(secTopo)
	return h, nil
}

// section returns section i's bytes (aliasing the blob).
func (h *Header) section(i int) []byte {
	return h.blob[h.dir[i]:h.dir[i+1]]
}

// DecodeOptions tunes DecodeBody.
type DecodeOptions struct {
	// Parallelism bounds the table- and forest-decode workers; 0 uses
	// GOMAXPROCS.
	Parallelism int
	// Intern, when set, canonicalizes decoded community sets through
	// the shared intern table, so the simulation engine the study feeds
	// starts with the decoder's allocations already interned.
	Intern *bgp.Intern
}

// DecodeBody decodes the full study. Tables and the forest decode in
// parallel (each table's routes, paths-region references and neighbor
// lists land in per-table arenas carved into per-prefix subslices,
// installed through bgp.RIB's bulk path), after the shared regions
// decode once up front.
func (h *Header) DecodeBody(opts DecodeOptions) (*Study, error) {
	s := &Study{
		ConfigJSON:  h.ConfigJSON,
		TopoCAIDA:   h.Topo,
		GroundTruth: h.GroundTruth,
		Timestamp:   h.Timestamp,
		MRT:         h.section(secMRT),
	}
	if !h.TopoCAIDA {
		s.TopoCAIDA = nil
	}

	r := &reader{b: h.section(secPeers)}
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	s.Peers = make([]bgp.ASN, n)
	for i := range s.Peers {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		s.Peers[i] = bgp.ASN(v)
	}

	r = &reader{b: h.section(secReach)}
	n, err = r.count(3)
	if err != nil {
		return nil, err
	}
	s.Reach = make([]ReachEntry, n)
	for i := range s.Reach {
		p, err := r.prefix()
		if err != nil {
			return nil, err
		}
		c, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		s.Reach[i] = ReachEntry{Prefix: p, Count: int(c)}
	}

	paths, err := decodePaths(h.section(secPaths))
	if err != nil {
		return nil, err
	}
	comms, err := decodeComms(h.section(secComms), opts.Intern)
	if err != nil {
		return nil, err
	}

	// Table index.
	r = &reader{b: h.section(secTableIndex)}
	n, err = r.count(6)
	if err != nil {
		return nil, err
	}
	type tableRef struct {
		owner                        bgp.ASN
		collector                    bool
		off, length, nprefix, nroute int
	}
	data := h.section(secTableData)
	refs := make([]tableRef, n)
	for i := range refs {
		owner, err := r.u32()
		if err != nil {
			return nil, err
		}
		kind, err := r.byte()
		if err != nil {
			return nil, err
		}
		if kind > 1 {
			return nil, corrupt("table %d: unknown kind %d", i, kind)
		}
		var vals [4]uint64
		for j := range vals {
			if vals[j], err = r.uvarint(); err != nil {
				return nil, err
			}
		}
		off, length := vals[0], vals[1]
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, corrupt("table %d: data range [%d,+%d) out of bounds", i, off, length)
		}
		// Each prefix costs >= 4 bytes, each route >= 9; bound both so a
		// corrupt count cannot drive a huge arena allocation.
		if vals[2] > length/4 || vals[3] > length/9 {
			return nil, corrupt("table %d: counts %d/%d overrun %d data bytes", i, vals[2], vals[3], length)
		}
		refs[i] = tableRef{
			owner:     bgp.ASN(owner),
			collector: kind == 1,
			off:       int(off),
			length:    int(length),
			nprefix:   int(vals[2]),
			nroute:    int(vals[3]),
		}
	}

	// One work item per table, after item 0: the forest, the largest
	// single piece of an entry that has one.
	s.Tables = make([]Table, len(refs))
	items := len(refs) + 1
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     int
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= items || firstErr != nil {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				var err error
				if i == 0 {
					s.Forest, err = decodeForest(h.section(secForest))
				} else {
					ref := refs[i-1]
					tab := Table{Owner: ref.owner, Collector: ref.collector}
					tab.RIB, err = decodeTable(ref.owner, data[ref.off:ref.off+ref.length],
						ref.nprefix, ref.nroute, paths, comms)
					s.Tables[i-1] = tab
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return s, nil
}

// decodePaths decodes the shared path region: every path is a subslice
// of one backing array, shared by every route that references it.
func decodePaths(sec []byte) ([]bgp.Path, error) {
	r := &reader{b: sec}
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	totalHops, err := r.count(1)
	if err != nil {
		return nil, err
	}
	paths := make([]bgp.Path, n)
	backing := make([]bgp.ASN, totalHops)
	used := 0
	for i := range paths {
		hops, err := r.count(1)
		if err != nil {
			return nil, err
		}
		if hops > totalHops-used {
			return nil, corrupt("path %d: %d hops overrun declared total %d", i, hops, totalHops)
		}
		sub := backing[used : used+hops : used+hops]
		used += hops
		for j := range sub {
			v, err := r.u32()
			if err != nil {
				return nil, err
			}
			sub[j] = bgp.ASN(v)
		}
		paths[i] = bgp.Path(sub)
	}
	return paths, nil
}

// decodeComms decodes the shared community-set region, canonicalizing
// each set through the intern table (nil-safe) under the same key the
// simulator's workers derive, so engine and decoder share allocations.
func decodeComms(sec []byte, in *bgp.Intern) ([]bgp.Communities, error) {
	r := &reader{b: sec}
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	totalMembers, err := r.count(1)
	if err != nil {
		return nil, err
	}
	comms := make([]bgp.Communities, n)
	var key []byte
	used := 0
	for i := range comms {
		m, err := r.count(1)
		if err != nil {
			return nil, err
		}
		if m > totalMembers-used {
			return nil, corrupt("community set %d: %d members overrun declared total %d", i, m, totalMembers)
		}
		used += m
		cs := make(bgp.Communities, m)
		for j := range cs {
			v, err := r.u32()
			if err != nil {
				return nil, err
			}
			cs[j] = bgp.Community(v)
			if j > 0 && cs[j] <= cs[j-1] {
				return nil, corrupt("community set %d not sorted", i)
			}
		}
		key = bgp.AppendCommunitiesKey(key[:0], cs)
		if canon, ok := in.LookupCommunities(key); ok {
			comms[i] = canon
		} else {
			comms[i] = in.InternCommunities(key, cs)
		}
	}
	return comms, nil
}

// decodeForest decodes the forest section into rows carved from one
// slab, whose size the section's own length bounds (a cell is at least
// one byte).
func decodeForest(sec []byte) ([][]int32, error) {
	if len(sec) == 0 {
		return nil, nil
	}
	r := &reader{b: sec}
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	width, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 || width == 0 || n > r.remaining()/width {
		return nil, corrupt("forest: %d rows of %d cells in %d bytes", n, width, r.remaining())
	}
	slab := make([]int32, n*width)
	for k := range slab {
		// Nearly every cell is a one-byte varint.
		if r.off < len(sec) && sec[r.off] < 0x80 {
			slab[k] = int32(sec[r.off])
			r.off++
			continue
		}
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt32 {
			return nil, corrupt("forest cell %d: code %d exceeds 31 bits", k, v)
		}
		slab[k] = int32(v)
	}
	if r.remaining() != 0 {
		return nil, corrupt("forest: %d trailing bytes", r.remaining())
	}
	rows := make([][]int32, n)
	for i := range rows {
		rows[i] = slab[i*width : (i+1)*width : (i+1)*width]
	}
	return rows, nil
}

// decodeTable decodes one table's entries into exact-size arenas and
// installs them through the RIB's bulk path.
func decodeTable(owner bgp.ASN, data []byte, nprefix, nroute int, paths []bgp.Path, comms []bgp.Communities) (*bgp.RIB, error) {
	r := &reader{b: data}
	rib := bgp.NewRIBSized(owner, nprefix)
	routeVals := make([]bgp.Route, nroute)
	routePtrs := make([]*bgp.Route, nroute)
	nbrsArena := make([]bgp.ASN, nroute)
	cursor := 0
	for i := 0; i < nprefix; i++ {
		prefix, err := r.prefix()
		if err != nil {
			return nil, err
		}
		nr, err := r.count(9)
		if err != nil {
			return nil, err
		}
		if nr == 0 {
			return nil, corrupt("table %v: empty entry for %v", owner, prefix)
		}
		if nr > nroute-cursor {
			return nil, corrupt("table %v: routes overrun declared total %d", owner, nroute)
		}
		bestSlot, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if bestSlot > uint64(nr) {
			return nil, corrupt("table %v %v: best slot %d of %d routes", owner, prefix, bestSlot, nr)
		}
		vals := routeVals[cursor : cursor+nr]
		ptrs := routePtrs[cursor : cursor+nr : cursor+nr]
		nbrs := nbrsArena[cursor : cursor+nr : cursor+nr]
		cursor += nr
		var prevNbr bgp.ASN
		for j := 0; j < nr; j++ {
			from, err := r.u32()
			if err != nil {
				return nil, err
			}
			if j > 0 && bgp.ASN(from) <= prevNbr {
				return nil, corrupt("table %v %v: neighbors not ascending", owner, prefix)
			}
			prevNbr = bgp.ASN(from)
			pathID, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if pathID > uint64(len(paths)) {
				return nil, corrupt("table %v %v: path id %d of %d", owner, prefix, pathID, len(paths))
			}
			commID, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if commID > uint64(len(comms)) {
				return nil, corrupt("table %v %v: community id %d of %d", owner, prefix, commID, len(comms))
			}
			fl, err := r.byte()
			if err != nil {
				return nil, err
			}
			var fields [5]uint32
			for k := range fields {
				if fields[k], err = r.u32(); err != nil {
					return nil, err
				}
			}
			rt := &vals[j]
			rt.Prefix = prefix
			if pathID > 0 {
				rt.Path = paths[pathID-1]
			}
			if commID > 0 {
				rt.Communities = comms[commID-1]
			}
			rt.Origin = bgp.Origin(fl & 0x3)
			rt.FromIBGP = fl&(1<<2) != 0
			rt.LocalPref = fields[0]
			rt.MED = fields[1]
			rt.NextHop = fields[2]
			rt.IGPMetric = fields[3]
			rt.RouterID = fields[4]
			nbrs[j] = bgp.ASN(from)
			ptrs[j] = rt
		}
		var best *bgp.Route
		if bestSlot > 0 {
			best = ptrs[bestSlot-1]
		}
		rib.InstallOwned(prefix, nil, nbrs, ptrs, best)
	}
	if cursor != nroute {
		return nil, corrupt("table %v: %d routes decoded, index declared %d", owner, cursor, nroute)
	}
	if r.remaining() != 0 {
		return nil, corrupt("table %v: %d trailing bytes", owner, r.remaining())
	}
	return rib, nil
}
