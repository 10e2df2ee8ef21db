package dataset

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/routeviews"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/studyfmt"
	"github.com/policyscope/policyscope/internal/topogen"
)

// cacheFormatVersion is hashed into every cache key, so a codec change
// invalidates old entries instead of misreading them. Version 3 is the
// flat studyfmt payload with the best-forest section (version 2 lacked
// the forest, version 1 was gob); the version byte inside the blob
// catches entries that survive a key collision or a hand-moved file, so
// both layers fall through to regeneration.
const cacheFormatVersion = 3

// Cached wraps a source with a content-addressed on-disk store: entries
// are keyed by a hash of the wrapped source's spec, so the expensive
// part of a synthetic dataset — BGP simulation to convergence — is paid
// once per configuration and cold server/CLI starts load the converged
// state from disk: the vantage tables and the best forest, from which
// the study's base what-if engine is restored without propagating a
// route. The payload is the studyfmt flat binary format: converged
// tables decode in parallel straight into bulk-installed RIBs while the
// topology regenerates concurrently (synthetic topologies are
// deterministic in the configuration and cheap next to simulation;
// CAIDA graphs are embedded in the entry, since no configuration can
// regenerate a measured file).
//
// Cache misses and unreadable/corrupt/stale-version entries fall
// through to the wrapped source; the store is repopulated best-effort
// (a write failure degrades to cold loads, never to a load failure).
type Cached struct {
	Source Source
	// Dir is the store directory, created on first write.
	Dir string
}

// NewCached wraps src with the store at dir.
func NewCached(src Source, dir string) *Cached { return &Cached{Source: src, Dir: dir} }

// Spec implements Source (the wrapper is transparent).
func (c *Cached) Spec() Spec { return c.Source.Spec() }

// Key returns the content-addressed store key: a hash of the wrapped
// source's spec plus the cache format version.
func (c *Cached) Key() string {
	blob, err := json.Marshal(struct {
		Version int  `json:"v"`
		Spec    Spec `json:"spec"`
	}{Version: cacheFormatVersion, Spec: c.Source.Spec()})
	if err != nil {
		// Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("dataset: marshal spec: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:16])
}

func (c *Cached) path() string { return filepath.Join(c.Dir, c.Key()+".study") }

// Load returns the cached study when the store has a valid entry, and
// otherwise loads from the wrapped source and persists the result.
func (c *Cached) Load(ctx context.Context) (*policyscope.Study, error) {
	start := time.Now()
	study, err := c.readCacheFile(ctx, c.path())
	if err == nil {
		observeLoad(cacheHit, start)
		return study, nil
	}
	if ctx.Err() != nil {
		return nil, err
	}
	// No entry is a miss; an entry that would not load — truncated,
	// corrupt, another format version, a forest the topology refuses — is
	// stale, and is replaced below.
	result := cacheStale
	if errors.Is(err, os.ErrNotExist) {
		result = cacheMiss
	}
	if study, err = c.Source.Load(ctx); err != nil {
		return nil, err
	}
	_ = c.writeCacheFile(c.path(), study) // best-effort
	observeLoad(result, start)
	return study, nil
}

// entryConfig decodes the configuration a cache entry recorded and
// replaces its execution-only part with the reading source's:
// Parallelism cannot change the data (it is canonicalized out of the
// cache key for the same reason), so the current process's setting — not
// the writer's — bounds the decode workers, drives the restored engine
// and appears in serialized documents. A source that is not ground truth
// keeps what the writer recorded.
func (c *Cached) entryConfig(h *studyfmt.Header) (policyscope.Config, error) {
	var cfg policyscope.Config
	if err := json.Unmarshal(h.ConfigJSON, &cfg); err != nil {
		return cfg, fmt.Errorf("bad config: %w", err)
	}
	if gt, ok := c.Source.(groundTruth); ok {
		cfg.Parallelism = gt.parallelism()
	}
	return cfg, nil
}

// writeCacheFile encodes s and atomically publishes it at path: a
// concurrent reader sees either no entry or a complete one.
func (c *Cached) writeCacheFile(path string, s *policyscope.Study) error {
	blob, err := c.encodeStudy(s)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".cache-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// encodeStudy builds the flat payload. Ground-truth studies persist the
// converged vantage tables, the collector table and the best forest of
// the study's base engine (the topology is regenerated from Config, or
// from the embedded CAIDA graph for CAIDA sources); snapshot-only
// studies persist the MRT bytes.
func (c *Cached) encodeStudy(s *policyscope.Study) ([]byte, error) {
	cfgJSON, err := json.Marshal(s.Config)
	if err != nil {
		return nil, err
	}
	fs := &studyfmt.Study{ConfigJSON: cfgJSON, GroundTruth: s.HasGroundTruth()}
	if !fs.GroundTruth {
		var buf bytes.Buffer
		if err := s.Snapshot.WriteMRT(&buf); err != nil {
			return nil, err
		}
		fs.MRT = buf.Bytes()
		return studyfmt.Encode(fs)
	}
	eng, err := s.WhatIfEngine()
	if err != nil {
		return nil, err
	}
	fs.Forest = eng.ForestSlots()
	if gt, ok := c.Source.(groundTruth); ok && gt.embedsGraph() {
		var buf bytes.Buffer
		if _, err := s.Topo.Graph.WriteTo(&buf); err != nil {
			return nil, err
		}
		fs.TopoCAIDA = buf.Bytes()
	}
	fs.Timestamp = s.Snapshot.Timestamp
	fs.Peers = s.Peers
	fs.Reach = make([]studyfmt.ReachEntry, 0, len(s.Result.ReachCount))
	for p, n := range s.Result.ReachCount {
		fs.Reach = append(fs.Reach, studyfmt.ReachEntry{Prefix: p, Count: n})
	}
	sort.Slice(fs.Reach, func(i, j int) bool {
		return fs.Reach[i].Prefix.Compare(fs.Reach[j].Prefix) < 0
	})
	owners := make([]bgp.ASN, 0, len(s.Result.Tables))
	for asn := range s.Result.Tables {
		owners = append(owners, asn)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	fs.Tables = make([]studyfmt.Table, 0, len(owners)+1)
	for _, asn := range owners {
		fs.Tables = append(fs.Tables, studyfmt.Table{Owner: asn, RIB: s.Result.Tables[asn]})
	}
	fs.Tables = append(fs.Tables, studyfmt.Table{
		Owner: s.Snapshot.Table.Owner, Collector: true, RIB: s.Snapshot.Table,
	})
	return studyfmt.Encode(fs)
}

// readCacheFile loads a cache entry. Any failure — truncation,
// corruption, a different format version, converged state the topology
// refuses (simulate.ErrRestore) — is returned as an error and treated by
// Load as a miss. For ground-truth entries the topology regenerates on
// its own goroutine while the tables decode in parallel, so the two
// dominant costs of a hit overlap; the base engine is then restored from
// the decoded tables and forest, and the study's Result is a view of it.
func (c *Cached) readCacheFile(ctx context.Context, path string) (*policyscope.Study, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	h, err := studyfmt.DecodeHeader(blob)
	if err != nil {
		return nil, fmt.Errorf("dataset: cache entry %s: %w", path, err)
	}
	cfg, err := c.entryConfig(h)
	if err != nil {
		return nil, fmt.Errorf("dataset: cache entry %s: %w", path, err)
	}

	if !h.GroundTruth {
		fs, err := h.DecodeBody(studyfmt.DecodeOptions{Parallelism: cfg.Parallelism})
		if err != nil {
			return nil, fmt.Errorf("dataset: cache entry %s: %w", path, err)
		}
		snap, err := routeviews.ReadMRT(bytes.NewReader(fs.MRT))
		if err != nil {
			return nil, fmt.Errorf("dataset: cache entry %s: %w", path, err)
		}
		return policyscope.NewStudyFromSnapshot(snap, cfg)
	}

	var (
		topo     *topogen.Topology
		topoErr  error
		topoDone = make(chan struct{})
	)
	// A ground-truth source rebuilds its own world, from the graph the
	// entry embeds when it embeds one (the cache key guarantees the live
	// spec matches the writer's; a CAIDA source also refuses the entry
	// when its file no longer holds that graph). Any other source — a
	// hit must not need the wrapped source at all — regenerates from the
	// configuration the entry recorded, which only a synthetic entry
	// allows.
	go func() {
		defer close(topoDone)
		if gt, ok := c.Source.(groundTruth); ok {
			topo, _, _, topoErr = gt.world(h.Topo)
		} else if h.TopoCAIDA {
			topoErr = fmt.Errorf("entry embeds a graph but the source is %T", c.Source)
		} else {
			topo, topoErr = topogen.Generate(cfg.TopologyConfig())
		}
	}()

	intern := bgp.NewIntern()
	fs, err := h.DecodeBody(studyfmt.DecodeOptions{Parallelism: cfg.Parallelism, Intern: intern})
	if err != nil {
		return nil, fmt.Errorf("dataset: cache entry %s: %w", path, err)
	}
	res := &simulate.Result{
		Tables:     make(map[bgp.ASN]*bgp.RIB, len(fs.Tables)),
		ReachCount: make(map[netx.Prefix]int, len(fs.Reach)),
	}
	for _, re := range fs.Reach {
		res.ReachCount[re.Prefix] = re.Count
	}
	var collector *bgp.RIB
	for _, t := range fs.Tables {
		if t.Collector {
			if collector != nil {
				return nil, fmt.Errorf("dataset: cache entry %s: multiple collector tables", path)
			}
			collector = t.RIB
		} else {
			res.Tables[t.Owner] = t.RIB
		}
	}
	if collector == nil {
		return nil, fmt.Errorf("dataset: cache entry %s: no collector table", path)
	}
	if <-topoDone; topoErr != nil {
		return nil, fmt.Errorf("dataset: cache entry %s: %w", path, topoErr)
	}
	base, err := simulate.RestoreEngine(topo, simulate.Options{
		VantagePoints: fs.Peers,
		Parallelism:   cfg.Parallelism,
		Intern:        intern,
	}, res, fs.Forest)
	if err != nil {
		return nil, fmt.Errorf("dataset: cache entry %s: %w", path, err)
	}
	snap := &routeviews.Snapshot{Timestamp: fs.Timestamp, Peers: fs.Peers, Table: collector}
	return policyscope.NewStudyFromInputs(policyscope.StudyInputs{
		Config:   cfg,
		Topo:     topo,
		Result:   res,
		Base:     base,
		Peers:    fs.Peers,
		Snapshot: snap,
		Intern:   intern,
	})
}
