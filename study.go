// Package policyscope reproduces "On Inferring and Characterizing
// Internet Routing Policies" (Wang & Gao, IMC 2003) end to end on a
// synthetic Internet: it generates an annotated AS topology with ground-
// truth routing policies, simulates BGP to convergence, collects
// RouteViews-style and Looking-Glass-style vantage data, and runs the
// paper's inference algorithms — import-policy typicality, next-hop
// consistency, the Figure-4 selective-announcement (SA) detector,
// community-based verification, persistence, cause analysis and
// export-to-peer behaviour.
//
// The entry point is a Session, which builds the Study — the synthetic
// Internet plus its vantage data and lazily derived artifacts — on the
// first query and answers every experiment of the catalog (Experiments
// lists it) by name:
//
//	sess := policyscope.NewSession(policyscope.DefaultConfig())
//	res, err := sess.Run(ctx, "table5", nil)
//	...
//	rows := res.(policyscope.RowsResult[core.SAResult]).Rows // typed data
//	res.Render(os.Stdout)                                    // or the paper's table
//
// Every experiment is deterministic in Config.Seed.
package policyscope

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/core"
	"github.com/policyscope/policyscope/internal/gaorelation"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/routeviews"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/topogen"
)

// ErrNeedsGroundTruth is the sentinel wrapped by every failure caused by
// asking a snapshot-only study (an imported MRT table dump) for an
// analysis that reads generator ground truth — the annotated topology,
// the full per-vantage tables, or the simulation engine. Match with
// errors.Is.
var ErrNeedsGroundTruth = errors.New("needs ground truth, but the study is snapshot-only")

// NeedsGroundTruthError reports which operation required ground truth.
type NeedsGroundTruthError struct {
	// Op names the experiment or subsystem ("table1", "what-if engine").
	Op string
}

func (e *NeedsGroundTruthError) Error() string {
	return fmt.Sprintf("policyscope: %s %v", e.Op, ErrNeedsGroundTruth)
}

// Unwrap makes errors.Is(err, ErrNeedsGroundTruth) succeed.
func (e *NeedsGroundTruthError) Unwrap() error { return ErrNeedsGroundTruth }

// Config sizes a study. The JSON names are the dataset-manifest and
// wire vocabulary (dataset.Catalog, RunAllDocument).
type Config struct {
	// NumASes is the synthetic Internet's size.
	NumASes int `json:"ases"`
	// Seed drives every random choice.
	Seed int64 `json:"seed"`
	// CollectorPeers is the RouteViews-style peer count (the paper's
	// collector had 56 peers).
	CollectorPeers int `json:"peers,omitempty"`
	// LookingGlassASes is how many vantage ASes expose full tables with
	// local preference (the paper used 15).
	LookingGlassASes int `json:"lg,omitempty"`
	// UseInferredRelationships switches the analyses from ground-truth
	// relationships to Gao-inferred ones (the paper's actual setting;
	// Section 4.3 bounds the error).
	UseInferredRelationships bool `json:"inferred,omitempty"`
	// Parallelism bounds simulation workers (0 = GOMAXPROCS).
	Parallelism int `json:"parallelism,omitempty"`
	// Tuning optionally adjusts the synthetic Internet's policy mix.
	Tuning *TopologyTuning `json:"tuning,omitempty"`
}

// TopologyTuning exposes the generator knobs that change experiment
// shapes. Nil fields keep their defaults; a non-nil pointer is applied
// verbatim, so a knob can be tuned all the way down to zero (e.g.
// Prob(0) on SelectiveAnnounceProb disables selective announcement
// outright — impossible back when zero values meant "default").
type TopologyTuning struct {
	// TierOneCount overrides the Tier-1 clique size (0 keeps the
	// derived default; a zero-sized clique is not a valid Internet).
	TierOneCount int `json:"tier_one_count,omitempty"`
	// SelectiveAnnounceProb is the probability a multihomed origin
	// selectively announces a prefix (drives Tables 5-9).
	SelectiveAnnounceProb *float64 `json:"selective_announce_prob,omitempty"`
	// AtypicalPrefProb is the share of sessions with class-order
	// violations (drives Tables 2-3).
	AtypicalPrefProb *float64 `json:"atypical_pref_prob,omitempty"`
	// TaggingProb is the share of ASes deploying relationship-tagging
	// communities (drives Table 4 coverage).
	TaggingProb *float64 `json:"tagging_prob,omitempty"`
	// PeerSelectiveProb is the probability a peer withholds prefixes
	// from another peer (drives Table 10).
	PeerSelectiveProb *float64 `json:"peer_selective_prob,omitempty"`
	// MeanPrefixesStub scales table sizes.
	MeanPrefixesStub *float64 `json:"mean_prefixes_stub,omitempty"`
}

// Prob returns a pointer to v — shorthand for populating
// TopologyTuning's optional knobs in literals.
func Prob(v float64) *float64 { return &v }

// DefaultConfig returns a laptop-scale study that exercises every
// experiment in seconds.
func DefaultConfig() Config {
	return Config{
		NumASes:          600,
		Seed:             42,
		CollectorPeers:   24,
		LookingGlassASes: 15,
	}
}

// Study is an Internet plus the vantage data the experiments consume.
// Synthetic studies carry the full ground truth (generated topology and
// converged per-vantage tables); snapshot-only studies — built from an
// imported MRT table dump — carry just the collector snapshot, run the
// snapshot-driven experiments, and answer ground-truth-dependent ones
// with ErrNeedsGroundTruth.
type Study struct {
	Config Config
	// Topo is the generated ground truth (nil for snapshot-only studies).
	Topo *topogen.Topology
	// Peers are the collector's peer ASes (all of them vantage points).
	Peers []bgp.ASN
	// LookingGlass is the subset of peers whose full tables play the
	// role of the paper's 15 Looking Glass servers (empty when the study
	// has no full tables).
	LookingGlass []bgp.ASN
	// Result holds the converged state (full tables at every peer; nil
	// for snapshot-only studies). For a study built by GenerateInputs or
	// loaded through the dataset package it is a view of the base what-if
	// engine — the same tables, not a copy: the base is only ever cloned,
	// and a clone writes to a table through its own copy-on-write layer —
	// so treat the tables as read-only.
	Result *simulate.Result
	// Snapshot is the collector's best-route view.
	Snapshot *routeviews.Snapshot
	// Graph is the relationship source used by the analyses: the ground
	// truth by default, the Gao-inferred graph when configured — and
	// always the inferred graph for snapshot-only studies, which have no
	// ground truth to consult.
	Graph *asgraph.Graph
	// Intern is the shared canonical-attribute table: the table decoder,
	// the simulation engine and the cache encoder all draw AS paths and
	// community sets from it, so equal attribute values are one
	// allocation study-wide. Always non-nil for studies built through
	// NewStudyFromInputs.
	Intern *bgp.Intern

	tiers map[bgp.ASN]int

	// base is the converged engine every what-if starts from: the run that
	// produced Result when the inputs carried it, otherwise built on first
	// demand (see baseEngine). Never applied to, only cloned.
	baseOnce sync.Once
	base     *simulate.Engine
	baseErr  error

	// Lazily memoized shared artifacts. All gates are safe for
	// concurrent use, so many Session queries can share one Study.
	inferOnce    sync.Once
	inferred     *gaorelation.Inference
	pathOnce     sync.Once
	pathIdx      map[netx.Prefix][]bgp.Path
	allPaths     []bgp.Path
	snapPathOnce sync.Once
	snapPaths    []bgp.Path
}

// SnapshotPaths returns the deduplicated observed AS paths of the
// collector snapshot — the input every relationship-inference
// algorithm consumes — computed once and memoized. Safe for concurrent
// callers; treat the result as read-only.
func (s *Study) SnapshotPaths() []bgp.Path {
	s.snapPathOnce.Do(func() {
		s.snapPaths = s.Snapshot.AllPaths()
	})
	return s.snapPaths
}

// Inference returns the Gao relationship-inference output, computing it
// on first use (the Section 4.3 comparison input). Safe for concurrent
// callers.
func (s *Study) Inference() *gaorelation.Inference {
	s.inferOnce.Do(func() {
		opts := gaorelation.DefaultOptions()
		opts.VantagePoints = s.Peers
		s.inferred = gaorelation.Infer(s.SnapshotPaths(), opts)
	})
	return s.inferred
}

// PathIndex returns the prefix → observed-AS-paths index over every
// vantage table, built once and memoized (Tables 7 and Case 3 share
// it). Safe for concurrent callers; treat the result as read-only.
func (s *Study) PathIndex() map[netx.Prefix][]bgp.Path {
	s.pathOnce.Do(func() {
		s.pathIdx = core.PathsByPrefix(s.VantageTables())
		s.allPaths = core.AllPathsOf(s.pathIdx)
	})
	return s.pathIdx
}

// AllObservedPaths returns every distinct observed AS path (derived
// from PathIndex, memoized with it).
func (s *Study) AllObservedPaths() []bgp.Path {
	s.PathIndex()
	return s.allPaths
}

// TopologyConfig resolves the generator configuration the study will
// use: defaults sized by NumASes and Seed with the tuning overlay
// applied. Nil tuning pointers keep the defaults; non-nil pointers are
// applied verbatim, explicit zeros included.
func (cfg Config) TopologyConfig() topogen.Config {
	tcfg := topogen.DefaultConfig(cfg.NumASes, cfg.Seed)
	if tn := cfg.Tuning; tn != nil {
		if tn.TierOneCount > 0 {
			tcfg.TierOneCount = tn.TierOneCount
		}
		if tn.SelectiveAnnounceProb != nil {
			tcfg.SelectiveAnnounceProb = *tn.SelectiveAnnounceProb
		}
		if tn.AtypicalPrefProb != nil {
			tcfg.AtypicalPrefProb = *tn.AtypicalPrefProb
		}
		if tn.TaggingProb != nil {
			tcfg.TaggingProb = *tn.TaggingProb
		}
		if tn.PeerSelectiveProb != nil {
			tcfg.PeerSelectiveProb = *tn.PeerSelectiveProb
		}
		if tn.MeanPrefixesStub != nil {
			tcfg.MeanPrefixesStub = *tn.MeanPrefixesStub
		}
	}
	return tcfg
}

// StudyInputs is the raw material a Study is assembled from. Dataset
// sources — synthetic generation, MRT import, the on-disk cache — own
// data acquisition and hand the result here; NewStudyFromInputs only
// derives the shared analysis state (Looking Glass selection, the
// relationship graph, the tier map).
type StudyInputs struct {
	// Config records how the inputs were produced (or, for imports, how
	// to analyze them: seed, parallelism, inference toggle).
	Config Config
	// Topo is the generated ground truth; nil for snapshot-only inputs.
	Topo *topogen.Topology
	// Result holds the full per-vantage tables; nil for snapshot-only
	// inputs. Topo and Result come and go together.
	Result *simulate.Result
	// Base, when set, is the converged engine Result is a view of
	// (Result == Base.Result()): the study keeps it as the base of every
	// what-if instead of converging Topo a second time. Nil makes the
	// study build its base on first demand.
	Base *simulate.Engine
	// Peers is the collector peer set; defaulted from Snapshot.Peers.
	Peers []bgp.ASN
	// Snapshot is the collector's best-route view (required).
	Snapshot *routeviews.Snapshot
	// Intern is the attribute table the inputs were built against
	// (simulation or cache decode). Nil gets a fresh table.
	Intern *bgp.Intern
}

// NewStudy generates, simulates and collects everything.
func NewStudy(cfg Config) (*Study, error) {
	in, err := GenerateInputs(cfg)
	if err != nil {
		return nil, err
	}
	return NewStudyFromInputs(in)
}

// GenerateInputs runs the synthetic pipeline — topology generation, BGP
// simulation to convergence, collector snapshot — and returns the full
// ground-truth inputs. Dataset sources call it so they can persist the
// inputs before study assembly.
func GenerateInputs(cfg Config) (StudyInputs, error) {
	if cfg.CollectorPeers <= 0 {
		cfg.CollectorPeers = 24
	}
	if cfg.LookingGlassASes <= 0 {
		cfg.LookingGlassASes = 15
	}
	topo, peers, err := GenerateTopology(cfg)
	if err != nil {
		return StudyInputs{}, err
	}
	return ConvergeInputs(cfg, topo, peers)
}

// ConvergeInputs is the one place a dataset's base state is converged:
// it simulates topo to convergence as a what-if engine, collects the
// snapshot from the engine's own tables, and returns inputs whose Result
// is a view of that engine and whose Base is the engine. cfg supplies
// Parallelism and is recorded as the inputs' Config.
func ConvergeInputs(cfg Config, topo *topogen.Topology, peers []bgp.ASN) (StudyInputs, error) {
	intern := bgp.NewIntern()
	base, err := simulate.NewEngine(topo, simulate.Options{
		VantagePoints: peers,
		Parallelism:   cfg.Parallelism,
		Intern:        intern,
	})
	if err != nil {
		return StudyInputs{}, err
	}
	if n := base.UnconvergedCount(); n > 0 {
		return StudyInputs{}, fmt.Errorf("policyscope: %d prefixes did not converge", n)
	}
	res := base.Result()
	snap, err := routeviews.Collect(res, peers, 0)
	if err != nil {
		return StudyInputs{}, err
	}
	return StudyInputs{Config: cfg, Topo: topo, Result: res, Base: base, Peers: peers, Snapshot: snap, Intern: intern}, nil
}

// GenerateTopology generates just the annotated topology and the
// collector peer selection for cfg — the first step of GenerateInputs,
// and all a consumer that needs no converged state wants of it (a
// synthetic dataset's topology-only load, the benchmark's per-layer
// timing). The peer set matches what a full GenerateInputs of the same
// cfg selects.
func GenerateTopology(cfg Config) (*topogen.Topology, []bgp.ASN, error) {
	if cfg.NumASes <= 0 {
		return nil, nil, fmt.Errorf("policyscope: NumASes must be positive")
	}
	if cfg.CollectorPeers <= 0 {
		cfg.CollectorPeers = 24
	}
	topo, err := topogen.Generate(cfg.TopologyConfig())
	if err != nil {
		return nil, nil, err
	}
	return topo, routeviews.SelectPeers(topo, cfg.CollectorPeers), nil
}

// NewStudyFromInputs assembles a Study from already-acquired inputs.
// With Topo and Result present the study is fully ground-truth-capable;
// with only a Snapshot it is snapshot-only: relationship analysis runs
// over the Gao-inferred graph (UseInferredRelationships is forced) and
// ground-truth-dependent experiments return ErrNeedsGroundTruth.
func NewStudyFromInputs(in StudyInputs) (*Study, error) {
	if in.Snapshot == nil {
		return nil, fmt.Errorf("policyscope: inputs have no snapshot")
	}
	if (in.Topo == nil) != (in.Result == nil) {
		return nil, fmt.Errorf("policyscope: inputs must carry both Topo and Result or neither")
	}
	if in.Base != nil && in.Result == nil {
		return nil, fmt.Errorf("policyscope: inputs carry a base engine but no Result")
	}
	cfg := in.Config
	peers := in.Peers
	if len(peers) == 0 {
		peers = append([]bgp.ASN(nil), in.Snapshot.Peers...)
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("policyscope: inputs have no collector peers")
	}
	if cfg.CollectorPeers <= 0 {
		cfg.CollectorPeers = len(peers)
	}
	if in.Topo == nil {
		// No ground truth to analyze against: relationships must come
		// from the observed paths.
		cfg.UseInferredRelationships = true
	}
	intern := in.Intern
	if intern == nil {
		intern = bgp.NewIntern()
	}
	s := &Study{
		Config:   cfg,
		Topo:     in.Topo,
		Peers:    peers,
		Result:   in.Result,
		Snapshot: in.Snapshot,
		Intern:   intern,
	}
	if in.Base != nil {
		s.baseOnce.Do(func() { s.base = in.Base })
	}
	if in.Result != nil {
		if cfg.LookingGlassASes <= 0 {
			cfg.LookingGlassASes = 15
			s.Config.LookingGlassASes = 15
		}
		// Looking Glass ASes: a mix like Table 1's — the largest peers
		// plus some mid-size ones.
		lg := append([]bgp.ASN(nil), peers...)
		sort.Slice(lg, func(i, j int) bool {
			di, dj := in.Topo.Graph.Degree(lg[i]), in.Topo.Graph.Degree(lg[j])
			if di != dj {
				return di > dj
			}
			return lg[i] < lg[j]
		})
		if len(lg) > cfg.LookingGlassASes {
			lg = lg[:cfg.LookingGlassASes]
		}
		sort.Slice(lg, func(i, j int) bool { return lg[i] < lg[j] })
		s.LookingGlass = lg
	}

	// Gao inference is expensive and usually only consulted for the
	// Section 4.3 accuracy bound: leave it to the lazy gate unless the
	// study analyzes over inferred relationships.
	if cfg.UseInferredRelationships {
		s.Graph = s.Inference().Graph
	} else {
		s.Graph = in.Topo.Graph
	}
	s.tiers = s.Graph.Tiers()
	return s, nil
}

// NewStudyFromSnapshot builds a snapshot-only study over one collector
// snapshot (the MRT-import path). cfg carries analysis knobs (Seed,
// Parallelism); sizing fields are derived from the snapshot.
func NewStudyFromSnapshot(snap *routeviews.Snapshot, cfg Config) (*Study, error) {
	return NewStudyFromInputs(StudyInputs{Config: cfg, Snapshot: snap})
}

// HasGroundTruth reports whether the study carries generator ground
// truth (annotated topology + full vantage tables). Snapshot-only
// studies answer false; their ground-truth-dependent experiments return
// ErrNeedsGroundTruth.
func (s *Study) HasGroundTruth() bool { return s.Topo != nil && s.Result != nil }

// TierOneVantages returns the study's Tier-1 vantage ASes (largest
// first), the analogues of AS1/AS3549/AS7018. Tier and degree come from
// the analysis relationship graph, so snapshot-only studies (inferred
// graph) and ground-truth studies answer through the same lens.
func (s *Study) TierOneVantages(n int) []bgp.ASN {
	var t1 []bgp.ASN
	for _, asn := range s.Peers {
		if s.tiers[asn] == 1 {
			t1 = append(t1, asn)
		}
	}
	sort.Slice(t1, func(i, j int) bool {
		di, dj := s.Graph.Degree(t1[i]), s.Graph.Degree(t1[j])
		if di != dj {
			return di > dj
		}
		return t1[i] < t1[j]
	})
	if n > 0 && len(t1) > n {
		t1 = t1[:n]
	}
	return t1
}

// PeerView returns the collector's best-route view for one peer.
func (s *Study) PeerView(peer bgp.ASN) core.BestView {
	return core.ViewFromPeerTable(s.Snapshot.Table, peer)
}

// AllPeerViews returns every peer's view, in peer order.
func (s *Study) AllPeerViews() []core.BestView {
	out := make([]core.BestView, 0, len(s.Peers))
	for _, p := range s.Peers {
		out = append(out, s.PeerView(p))
	}
	return out
}

// VantageTables returns the full tables of every peer (the path-index
// input), or nil for snapshot-only studies.
func (s *Study) VantageTables() []*bgp.RIB {
	if s.Result == nil {
		return nil
	}
	out := make([]*bgp.RIB, 0, len(s.Peers))
	for _, p := range s.Peers {
		out = append(out, s.Result.Tables[p])
	}
	return out
}

// RelationshipAccuracy scores the Gao inference against ground truth —
// the Section 4.3 bound.
func (s *Study) RelationshipAccuracy() gaorelation.Accuracy {
	return gaorelation.Score(s.Inference().Graph, s.Topo.Graph)
}

// HasProviders reports whether the relationship source says asn has
// providers (the community-semantics prior).
func (s *Study) HasProviders(asn bgp.ASN) bool {
	return len(s.Graph.Providers(asn)) > 0
}
