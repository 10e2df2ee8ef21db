// Package routeviews models an Oregon-RouteViews-style collector: a
// pseudo-AS that peers with a set of real ASes, each of which announces
// its default-free best routes to it. The collector's view — per prefix,
// each peer's best route — is exactly what the paper's Section 3 data
// source provides, and snapshots serialize to MRT TABLE_DUMP_V2 like the
// real archive.
package routeviews

import (
	"fmt"
	"io"
	"sort"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/mrt"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/topogen"
)

// CollectorASN is the pseudo-ASN owning collector snapshots (Oregon's
// RouteViews used AS6447; the paper's Table 1 lists the view under
// AS6664).
const CollectorASN bgp.ASN = 6447

// SelectPeers picks a RouteViews-like peer set: every Tier-1 AS (the
// paper: "those ASs include nearly all Tier-1 ASs"), then the
// largest-degree Tier-2 ASes until n peers are selected.
func SelectPeers(topo *topogen.Topology, n int) []bgp.ASN {
	peers := append([]bgp.ASN(nil), topo.ASesByTier(1)...)
	t2 := append([]bgp.ASN(nil), topo.ASesByTier(2)...)
	sort.Slice(t2, func(i, j int) bool {
		di, dj := topo.Graph.Degree(t2[i]), topo.Graph.Degree(t2[j])
		if di != dj {
			return di > dj
		}
		return t2[i] < t2[j]
	})
	for _, asn := range t2 {
		if len(peers) >= n {
			break
		}
		peers = append(peers, asn)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	if len(peers) > n {
		peers = peers[:n]
	}
	return peers
}

// Snapshot is one collector table: each peer's best routes at an epoch.
type Snapshot struct {
	// Timestamp is the synthetic collection time (epoch index-based).
	Timestamp uint32
	// Peers is the collector's peer set, ascending.
	Peers []bgp.ASN
	// Table holds, per prefix, one candidate per peer (that peer's best
	// route). The RIB owner is CollectorASN.
	Table *bgp.RIB
}

// Collect builds a snapshot from a simulation result. Every peer must be
// among the run's vantage points.
func Collect(res *simulate.Result, peers []bgp.ASN, timestamp uint32) (*Snapshot, error) {
	snap := &Snapshot{
		Timestamp: timestamp,
		Peers:     append([]bgp.ASN(nil), peers...),
		Table:     bgp.NewRIB(CollectorASN),
	}
	sort.Slice(snap.Peers, func(i, j int) bool { return snap.Peers[i] < snap.Peers[j] })
	for _, peer := range snap.Peers {
		rib, ok := res.Tables[peer]
		if !ok {
			return nil, fmt.Errorf("routeviews: peer %v was not a vantage point", peer)
		}
		rib.EachBest(func(_ netx.Prefix, r *bgp.Route) {
			snap.Table.Upsert(peer, r)
		})
	}
	return snap, nil
}

// RouteFrom returns the best route peer announced for prefix, or nil.
func (s *Snapshot) RouteFrom(peer bgp.ASN, prefix netx.Prefix) *bgp.Route {
	return s.Table.CandidateFrom(prefix, peer)
}

// Prefixes lists every prefix any peer announced, in Compare order.
func (s *Snapshot) Prefixes() []netx.Prefix { return s.Table.Prefixes() }

// AllPaths returns every AS path in the snapshot (the relationship
// inference input). Paths are deduplicated.
func (s *Snapshot) AllPaths() []bgp.Path {
	seen := make(map[string]bool)
	var out []bgp.Path
	for _, prefix := range s.Table.Prefixes() {
		for _, r := range s.Table.Candidates(prefix) {
			if len(r.Path) < 2 {
				continue
			}
			k := r.Path.String()
			if !seen[k] {
				seen[k] = true
				out = append(out, r.Path)
			}
		}
	}
	return out
}

// WriteMRT serializes the snapshot as TABLE_DUMP_V2: one PEER_INDEX_TABLE
// followed by one RIB_IPV4_UNICAST record per prefix.
func (s *Snapshot) WriteMRT(w io.Writer) error {
	mw := mrt.NewWriter(w, s.Timestamp)
	peers := make([]mrt.PeerEntry, len(s.Peers))
	for i, asn := range s.Peers {
		peers[i] = mrt.PeerEntry{
			BGPID: uint32(asn),
			IP:    peerIP(asn),
			AS:    asn,
			AS4:   true,
		}
	}
	if err := mw.WritePeerIndex(uint32(CollectorASN), "policyscope", peers); err != nil {
		return err
	}
	for _, prefix := range s.Table.Prefixes() {
		var entries []mrt.TableEntry
		for _, peer := range s.Peers {
			r := s.Table.CandidateFrom(prefix, peer)
			if r == nil {
				continue
			}
			entries = append(entries, mrt.TableEntry{
				PeerAS:       peer,
				PeerIP:       peerIP(peer),
				Route:        r,
				OriginatedAt: s.Timestamp,
			})
		}
		if len(entries) == 0 {
			continue
		}
		if err := mw.WriteRIB(prefix, entries); err != nil {
			return err
		}
	}
	return nil
}

// ReadMRT reconstructs a snapshot from TABLE_DUMP_V2 output.
func ReadMRT(r io.Reader) (*Snapshot, error) {
	records, err := mrt.ReadAll(r)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Table: bgp.NewRIB(CollectorASN)}
	for _, rec := range records {
		switch rec := rec.(type) {
		case *mrt.PeerIndexRecord:
			snap.Timestamp = rec.Header.Timestamp
			for _, p := range rec.Peers {
				snap.Peers = append(snap.Peers, p.AS)
			}
			sort.Slice(snap.Peers, func(i, j int) bool { return snap.Peers[i] < snap.Peers[j] })
		case *mrt.RIBRecord:
			for _, e := range rec.Entries {
				snap.Table.Upsert(e.PeerAS, e.Route)
			}
		}
	}
	return snap, nil
}

func peerIP(asn bgp.ASN) uint32 {
	return 0xC6336400 | (uint32(asn) & 0xff) // 198.51.100.x, TEST-NET-2
}
