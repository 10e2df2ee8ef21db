// Package dataset makes the data a study runs over a first-class API
// parameter. The paper's analyses are functions of a BGP table snapshot
// — RouteViews MRT dumps plus Looking Glass views — and the related
// AS-relationship pipelines (Gao; Dimitropoulos et al.) are likewise
// parameterized by which RIB snapshot they ingest. This package gives
// policyscope the same shape:
//
//   - Source yields a Study's inputs: Synthetic (a named generator
//     configuration), MRTFile (an imported TABLE_DUMP_V2 snapshot,
//     loaded into a snapshot-only Study), and Cached (a
//     content-addressed on-disk store over any source, so expensive
//     synthetic generation is paid once per spec).
//   - Catalog names sources: built-in presets (paper, small, large)
//     plus entries from a JSON manifest.
//   - Pool is a bounded LRU of warmed Sessions keyed by dataset name,
//     with singleflight builds, so one server process serves many
//     universes concurrently.
//   - Flags is the front door every binary shares: the six dataset
//     flags, declared once, yielding the catalog.
package dataset

import (
	"context"
	"fmt"
	"os"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/routeviews"
	"github.com/policyscope/policyscope/internal/topogen"
)

// Source kinds, as reported by Spec.Kind. KindCAIDA is declared with
// its source in caida.go.
const (
	KindSynthetic = "synthetic"
	KindMRT       = "mrt"
	KindStudy     = "study"
)

// Source yields a Study's inputs. Implementations are cheap to
// construct; all acquisition cost is in Load.
type Source interface {
	// Spec describes the source declaratively. The canonical JSON
	// encoding of the spec is stable across processes and is the cache
	// key material.
	Spec() Spec
	// Load materializes the study. ctx gates the work: generation and
	// import honor cancellation at their checkpoints.
	Load(ctx context.Context) (*policyscope.Study, error)
}

// Spec is a source's declarative description — what a catalog lists and
// what the cache hashes.
type Spec struct {
	// Kind is one of KindSynthetic, KindMRT, KindStudy.
	Kind string `json:"kind"`
	// Synthetic carries the generator configuration for synthetic
	// sources.
	Synthetic *policyscope.Config `json:"synthetic,omitempty"`
	// MRT is the snapshot path for MRT sources.
	MRT string `json:"mrt,omitempty"`
	// CAIDA carries the relationship-file configuration for CAIDA
	// sources.
	CAIDA *CAIDASpec `json:"caida,omitempty"`
}

// Synthetic generates a study from a policyscope configuration — the
// topogen preset path NewStudy always took, packaged as a source.
type Synthetic struct {
	Config policyscope.Config
}

// NewSynthetic returns a synthetic source for cfg.
func NewSynthetic(cfg policyscope.Config) *Synthetic { return &Synthetic{Config: cfg} }

// Spec implements Source. Parallelism is canonicalized away: it is an
// execution knob that cannot change the generated data (the simulation
// is deterministic across worker counts), so it must not split the
// cache key.
func (s *Synthetic) Spec() Spec {
	cfg := s.Config
	cfg.Parallelism = 0
	return Spec{Kind: KindSynthetic, Synthetic: &cfg}
}

// Load generates, simulates and collects the study.
func (s *Synthetic) Load(ctx context.Context) (*policyscope.Study, error) { return loadWorld(ctx, s) }

func (s *Synthetic) parallelism() int { return s.Config.Parallelism }

func (s *Synthetic) embedsGraph() bool { return false }

// world generates the topology from the configuration alone. The Config
// it reports carries the peer-count default policyscope.NewStudy records,
// so a study loaded here and one built there serialize the same.
func (s *Synthetic) world(graph []byte) (*topogen.Topology, []bgp.ASN, policyscope.Config, error) {
	cfg := s.Config
	if len(graph) > 0 {
		return nil, nil, cfg, fmt.Errorf("dataset: entry embeds a graph but a synthetic source generates its own")
	}
	if cfg.CollectorPeers <= 0 {
		cfg.CollectorPeers = 24
	}
	topo, peers, err := policyscope.GenerateTopology(cfg)
	return topo, peers, cfg, err
}

// groundTruth is the optional capability of a source whose data is a
// topology and a collector peer set converged by
// policyscope.ConvergeInputs: Synthetic and CAIDAFile have it; MRTFile,
// FromStudy and foreign Source implementations do not. It is all the
// package asks of a source beyond Spec and Load — loading, the
// topology-only load, cache restore, graph embedding and what is worth
// caching go through it — so what a source kind means is written in the
// source and nowhere else.
type groundTruth interface {
	// parallelism is the reading process's execution knob; it replaces
	// the value a cache entry recorded.
	parallelism() int
	// world builds the annotated topology, selects the collector peers
	// and derives the Config a study over them reports. graph is empty,
	// or the bytes a cache entry of this source embedded.
	world(graph []byte) (*topogen.Topology, []bgp.ASN, policyscope.Config, error)
	// embedsGraph reports that the spec alone cannot regenerate the
	// topology, so a cache entry carries the serialized graph.
	embedsGraph() bool
}

// loadWorld is Load for a ground-truth source: build the world, converge
// it — once; the study keeps the run as its what-if base.
func loadWorld(ctx context.Context, gt groundTruth) (*policyscope.Study, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	topo, peers, cfg, err := gt.world(nil)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	in, err := policyscope.ConvergeInputs(cfg, topo, peers)
	if err != nil {
		return nil, err
	}
	return policyscope.NewStudyFromInputs(in)
}

// MRTFile loads a TABLE_DUMP/TABLE_DUMP_V2 snapshot into a
// snapshot-only study: ground-truth-free experiments run over the
// imported table (relationships Gao-inferred from the observed paths),
// ground-truth-dependent ones return policyscope.ErrNeedsGroundTruth.
type MRTFile struct {
	// Path is the MRT file.
	Path string
}

// NewMRTFile returns a source over the MRT file at path.
func NewMRTFile(path string) *MRTFile { return &MRTFile{Path: path} }

// Spec implements Source.
func (m *MRTFile) Spec() Spec { return Spec{Kind: KindMRT, MRT: m.Path} }

// Load parses the dump and assembles the snapshot-only study.
func (m *MRTFile) Load(ctx context.Context) (*policyscope.Study, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := os.Open(m.Path)
	if err != nil {
		return nil, fmt.Errorf("dataset: open MRT: %w", err)
	}
	defer f.Close()
	snap, err := routeviews.ReadMRT(f)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", m.Path, err)
	}
	if len(snap.Peers) == 0 {
		return nil, fmt.Errorf("dataset: %s: snapshot has no peer index", m.Path)
	}
	if len(snap.Prefixes()) == 0 {
		return nil, fmt.Errorf("dataset: %s: snapshot has no routes", m.Path)
	}
	// The sizing fields come from the snapshot; no manifest entry or
	// flag sets analysis knobs for an import.
	return policyscope.NewStudyFromSnapshot(snap, policyscope.Config{})
}

// LoadTopology yields just a dataset's annotated topology and collector
// peer set, for the one consumer that needs no converged state: the
// distributed sweep coordinator, which expands its spec against the
// topology and leaves every engine to its fleet. A ground-truth source
// builds its world without simulating it (a Cached wrapper is unwrapped:
// generation is cheaper than reading an entry's tables). Anything that
// wants converged state should Load the study and take
// Study.WhatIfEngine, which a cached dataset restores without
// converging. Snapshot-only sources return an error wrapping
// policyscope.ErrNeedsGroundTruth.
func LoadTopology(ctx context.Context, src Source) (*topogen.Topology, []bgp.ASN, error) {
	if c, ok := src.(*Cached); ok {
		src = c.Source
	}
	if gt, ok := src.(groundTruth); ok {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		topo, peers, _, err := gt.world(nil)
		return topo, peers, err
	}
	study, err := src.Load(ctx)
	if err != nil {
		return nil, nil, err
	}
	if !study.HasGroundTruth() {
		return nil, nil, fmt.Errorf("dataset: snapshot-only dataset: %w", policyscope.ErrNeedsGroundTruth)
	}
	return study.Topo, study.Peers, nil
}

// studySource adapts an already-built study (tests, embedding a
// pre-warmed dataset into a catalog). Load hands out the same study;
// studies are safe for concurrent read-only use.
type studySource struct{ study *policyscope.Study }

// FromStudy wraps an already-built study as a source.
func FromStudy(s *policyscope.Study) Source { return &studySource{study: s} }

func (s *studySource) Spec() Spec {
	cfg := s.study.Config
	return Spec{Kind: KindStudy, Synthetic: &cfg}
}

func (s *studySource) Load(context.Context) (*policyscope.Study, error) { return s.study, nil }
