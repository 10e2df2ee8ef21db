package dataset

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/routeviews"
	"github.com/policyscope/policyscope/internal/topogen"
)

// KindCAIDA is the Spec.Kind of CAIDA relationship-file sources.
const KindCAIDA = "caida"

// CAIDASpec declares a CAIDA source: a serialized AS-relationship graph
// ("a|b|-1" provider→customer, "a|b|0" peer, "a|b|1" sibling — the
// as-rel file format) plus the synthesis knobs that turn a bare graph
// into a runnable universe. The spec fully determines the generated
// data, so it is the cache-key material; execution knobs (Parallelism)
// live on the source, not here.
type CAIDASpec struct {
	// Path is the relationships file.
	Path string `json:"path"`
	// MaxPrefixes bounds how many /24s are synthesized over the graph
	// (origins are stride-selected across all connected ASes). The
	// default is 2048; the cap is 65536.
	MaxPrefixes int `json:"max_prefixes,omitempty"`
	// CollectorPeers is the RouteViews-style peer count (default 24).
	CollectorPeers int `json:"peers,omitempty"`
	// LookingGlassASes is the Looking-Glass vantage count (default 15).
	LookingGlassASes int `json:"lg,omitempty"`
	// Seed drives the deterministic synthesis choices.
	Seed int64 `json:"seed,omitempty"`
}

// withDefaults returns the spec with every zero knob resolved, so the
// canonical spec (and hence the cache key) is independent of which
// defaults the constructing code spelled out.
func (sp CAIDASpec) withDefaults() CAIDASpec {
	if sp.MaxPrefixes <= 0 {
		sp.MaxPrefixes = 2048
	}
	if sp.MaxPrefixes > 65536 {
		sp.MaxPrefixes = 65536
	}
	if sp.CollectorPeers <= 0 {
		sp.CollectorPeers = 24
	}
	if sp.LookingGlassASes <= 0 {
		sp.LookingGlassASes = 15
	}
	return sp
}

// CAIDAFile loads a CAIDA-format AS-relationship file as a full
// ground-truth dataset: the real (internet-scale) graph topology with
// default routing policies, synthesized prefix originations, and a BGP
// simulation to convergence over it. It is the bridge from the paper's
// synthetic universes to measured AS graphs 10-100x their size.
type CAIDAFile struct {
	// CAIDASpec is the file and the synthesis knobs (zero values take the
	// spec defaults).
	CAIDASpec
	// Parallelism bounds simulation workers (execution knob; not part
	// of the spec).
	Parallelism int
}

// NewCAIDAFile returns a source over the relationships file at path.
func NewCAIDAFile(path string) *CAIDAFile { return &CAIDAFile{CAIDASpec: CAIDASpec{Path: path}} }

// Spec implements Source. The spec carries the resolved defaults so
// equivalent constructions share one cache entry.
func (c *CAIDAFile) Spec() Spec {
	sp := c.withDefaults()
	return Spec{Kind: KindCAIDA, CAIDA: &sp}
}

// Load parses the graph, synthesizes the topology and simulates it to
// convergence.
func (c *CAIDAFile) Load(ctx context.Context) (*policyscope.Study, error) { return loadWorld(ctx, c) }

func (c *CAIDAFile) parallelism() int { return c.Parallelism }

// embedsGraph: no configuration can regenerate a measured file.
func (c *CAIDAFile) embedsGraph() bool { return true }

// world annotates the relationship graph and derives the analysis
// configuration a CAIDA study reports.
func (c *CAIDAFile) world(graph []byte) (*topogen.Topology, []bgp.ASN, policyscope.Config, error) {
	var cfg policyscope.Config
	g, err := c.graph(graph)
	if err != nil {
		return nil, nil, cfg, err
	}
	sp := c.withDefaults()
	topo, err := caidaTopology(g, sp)
	if err != nil {
		return nil, nil, cfg, err
	}
	peers := routeviews.SelectPeers(topo, sp.CollectorPeers)
	if len(peers) == 0 {
		return nil, nil, cfg, fmt.Errorf("dataset: %s: graph has no eligible collector peers", c.Path)
	}
	cfg = policyscope.Config{
		NumASes:          len(topo.Order),
		Seed:             sp.Seed,
		CollectorPeers:   len(peers),
		LookingGlassASes: sp.LookingGlassASes,
		Parallelism:      c.Parallelism,
	}
	return topo, peers, cfg, nil
}

// graph parses the relationship file. A cache entry supplies the graph
// it was built from (embedded, canonically serialized): while the file
// exists it must still serialize to those bytes, so a file edited since
// the entry was written makes the entry stale instead of a hit on the
// old graph. Only a file that is gone falls back to the embedded graph.
func (c *CAIDAFile) graph(embedded []byte) (*asgraph.Graph, error) {
	raw, err := os.ReadFile(c.Path)
	if len(embedded) > 0 && errors.Is(err, os.ErrNotExist) {
		raw, err = embedded, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: open CAIDA relationships: %w", err)
	}
	g, err := asgraph.Read(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", c.Path, err)
	}
	if len(embedded) > 0 {
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			return nil, err
		}
		if !bytes.Equal(buf.Bytes(), embedded) {
			return nil, fmt.Errorf("dataset: %s changed since the cache entry was written", c.Path)
		}
	}
	return g, nil
}

// caidaTopology annotates a relationship graph into a runnable
// topology: tiers from the provider hierarchy, default (nil) policies
// everywhere, and MaxPrefixes /24 originations stride-selected over the
// connected ASes. Deterministic in (graph, spec).
func caidaTopology(g *asgraph.Graph, spec CAIDASpec) (*topogen.Topology, error) {
	spec = spec.withDefaults()
	nodes := g.Nodes()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("dataset: CAIDA graph is empty")
	}
	tiers := g.Tiers()
	topo := &topogen.Topology{
		Config:       topogen.DefaultConfig(len(nodes), spec.Seed),
		Graph:        g,
		ASes:         make(map[bgp.ASN]*topogen.ASInfo, len(nodes)),
		Order:        nodes,
		PrefixOrigin: make(map[netx.Prefix]bgp.ASN, spec.MaxPrefixes),
		Policies:     make(map[bgp.ASN]*topogen.Policy),
	}
	eligible := make([]bgp.ASN, 0, len(nodes))
	for _, asn := range nodes {
		tier := tiers[asn]
		if tier < 1 || tier > 3 {
			tier = 3
		}
		topo.ASes[asn] = &topogen.ASInfo{
			ASN:    asn,
			Name:   fmt.Sprintf("AS%d", asn),
			Region: regionOf(asn),
			Tier:   tier,
		}
		if g.Degree(asn) > 0 {
			eligible = append(eligible, asn)
		}
	}
	if len(eligible) == 0 {
		return nil, fmt.Errorf("dataset: CAIDA graph has no edges")
	}
	n := spec.MaxPrefixes
	if n > len(eligible) {
		n = len(eligible)
	}
	for i := 0; i < n; i++ {
		// Stride selection spreads origins evenly across the (ascending)
		// AS numbering, so the prefix set samples every region of the
		// hierarchy instead of clustering at low ASNs.
		origin := eligible[i*len(eligible)/n]
		p := netx.Prefix{Addr: 11<<24 | uint32(i)<<8, Len: 24}
		topo.PrefixOrigin[p] = origin
		info := topo.ASes[origin]
		info.Prefixes = append(info.Prefixes, p)
	}
	return topo, nil
}

// regionOf tags an AS with a deterministic pseudo-region, weighted
// roughly like the generator's draw (CAIDA files carry no geography).
func regionOf(asn bgp.ASN) topogen.Region {
	switch x := asn % 20; {
	case x < 11:
		return topogen.RegionNA
	case x < 18:
		return topogen.RegionEU
	case x < 19:
		return topogen.RegionAS
	default:
		return topogen.RegionAU
	}
}
