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
func (s *Synthetic) Load(ctx context.Context) (*policyscope.Study, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return policyscope.NewStudy(s.Config)
}

// MRTFile loads a TABLE_DUMP/TABLE_DUMP_V2 snapshot into a
// snapshot-only study: ground-truth-free experiments run over the
// imported table (relationships Gao-inferred from the observed paths),
// ground-truth-dependent ones return policyscope.ErrNeedsGroundTruth.
type MRTFile struct {
	// Path is the MRT file.
	Path string
	// Config carries analysis knobs (Seed, Parallelism); sizing fields
	// are derived from the snapshot. The zero value is fine.
	Config policyscope.Config
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
	return policyscope.NewStudyFromSnapshot(snap, m.Config)
}

// LoadTopology yields just a dataset's annotated topology and collector
// peer set, for a consumer that may need no converged state at all
// (cmd/sweep expands its spec against the topology and, in fleet mode,
// never builds an engine; cmd/simulate -scenario builds its own). For
// synthetic and CAIDA sources this generates the topology without
// simulating it; a Cached wrapper is unwrapped, because generation alone
// is cheaper than reading an entry's tables. A consumer that does want
// the converged state should Load the study and take
// Study.WhatIfEngine, which a cached dataset restores without
// converging. Snapshot-only sources carry no topology and return an
// error wrapping policyscope.ErrNeedsGroundTruth.
func LoadTopology(ctx context.Context, src Source) (*topogen.Topology, []bgp.ASN, error) {
	if c, ok := src.(*Cached); ok {
		src = c.Source
	}
	if s, ok := src.(*Synthetic); ok {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		return policyscope.GenerateTopology(s.Config)
	}
	if c, ok := src.(*CAIDAFile); ok {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		g, err := c.readGraph()
		if err != nil {
			return nil, nil, err
		}
		sp := *c.Spec().CAIDA
		topo, err := CAIDATopology(g, sp)
		if err != nil {
			return nil, nil, err
		}
		return topo, routeviews.SelectPeers(topo, sp.CollectorPeers), nil
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
