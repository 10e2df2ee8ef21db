// Package infer is a typed catalog of named AS-relationship inference
// algorithms — the bakeoff counterpart to the experiment registry. The
// paper commits to a single algorithm ("we choose the one described in
// [12]" — Gao); this package makes that choice a parameter. Each
// algorithm registers under a stable name with a typed parameter
// struct (decodable from strict JSON or key=value flags) and produces
// a deterministic Output: an annotated graph, observed degrees, and —
// for probabilistic algorithms — a per-edge posterior over the four
// relationship classes.
//
// The catalog (Default) is an experiment.Registry over Input — observed
// AS paths plus the collector's vantage points — so every serving
// surface (HTTP, CLI, experiments) drives algorithms the same way it
// drives queries.
package infer

import (
	"sort"

	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
)

// Input is what every registered algorithm consumes: the observed
// paths (deduplicated, prepending intact) and the vantage ASes whose
// tables contributed them.
type Input struct {
	// Paths are the observed AS paths.
	Paths []bgp.Path
	// VantagePoints lists the collector's peer ASes.
	VantagePoints []bgp.ASN
}

// Output is one algorithm's inference. All fields are deterministic in
// (Input, params): graphs enumerate edges in canonical order and the
// posterior slice is sorted by (A, B).
type Output struct {
	// Algorithm is the registry name that produced this output.
	Algorithm string
	// Graph is the inferred annotated AS graph (for probabilistic
	// algorithms, the maximum-a-posteriori point estimate).
	Graph *asgraph.Graph
	// Degrees is the observed degree of every AS in the path set.
	Degrees map[bgp.ASN]int
	// Posterior is the per-edge class distribution, nil for
	// point-estimate algorithms.
	Posterior []EdgePosterior
}

// Algorithm is one catalog entry: an experiment.Experiment that runs
// against an Input and returns an Output. Probabilistic marks algorithms
// whose Output carries a Posterior.
type Algorithm = experiment.Experiment[Input, *Output]

// NotFoundError and ParamError are the registry's shared error types;
// Default's read "infer: unknown algorithm ..." and "infer <name>: bad
// params: ...".
type (
	NotFoundError = experiment.NotFoundError
	ParamError    = experiment.ParamError
)

// Default is the process-wide catalog the built-in algorithms register
// into; policyscope's Session, the HTTP server, and policyscope inferrel
// all resolve names against it.
var Default = experiment.NewRegistry[Input, *Output](experiment.Kind{Pkg: "infer", Noun: "algorithm"})

// shared path preprocessing --------------------------------------------

// collapse removes consecutive duplicates (AS-path prepending).
func collapse(p bgp.Path) bgp.Path {
	if len(p) == 0 {
		return nil
	}
	out := bgp.Path{p[0]}
	for _, a := range p[1:] {
		if a != out[len(out)-1] {
			out = append(out, a)
		}
	}
	return out
}

// cleanPaths collapses prepending and drops paths shorter than two hops.
func cleanPaths(paths []bgp.Path) []bgp.Path {
	out := make([]bgp.Path, 0, len(paths))
	for _, p := range paths {
		if c := collapse(p); len(c) >= 2 {
			out = append(out, c)
		}
	}
	return out
}

// observedDegrees counts each AS's distinct neighbors across the
// (already cleaned) path set.
func observedDegrees(paths []bgp.Path) map[bgp.ASN]int {
	sets := make(map[bgp.ASN]map[bgp.ASN]bool)
	add := func(a, b bgp.ASN) {
		if sets[a] == nil {
			sets[a] = make(map[bgp.ASN]bool)
		}
		sets[a][b] = true
	}
	for _, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			add(p[i], p[i+1])
			add(p[i+1], p[i])
		}
	}
	degrees := make(map[bgp.ASN]int, len(sets))
	for asn, set := range sets {
		degrees[asn] = len(set)
	}
	return degrees
}

// transitDegrees counts, for every AS, the distinct neighbors it is
// observed forwarding between (the Dimitropoulos et al. ranking
// metric): an AS in the interior of a path transits for both the hop
// before and the hop after it.
func transitDegrees(paths []bgp.Path) map[bgp.ASN]int {
	sets := make(map[bgp.ASN]map[bgp.ASN]bool)
	for _, p := range paths {
		for i := 1; i+1 < len(p); i++ {
			if sets[p[i]] == nil {
				sets[p[i]] = make(map[bgp.ASN]bool)
			}
			sets[p[i]][p[i-1]] = true
			sets[p[i]][p[i+1]] = true
		}
	}
	out := make(map[bgp.ASN]int, len(sets))
	for asn, set := range sets {
		out[asn] = len(set)
	}
	return out
}

type edgeKey struct{ a, b bgp.ASN } // a < b

func ekey(x, y bgp.ASN) edgeKey {
	if x < y {
		return edgeKey{x, y}
	}
	return edgeKey{y, x}
}

func sortedEdgeKeys[V any](m map[edgeKey]V) []edgeKey {
	keys := make([]edgeKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	return keys
}
