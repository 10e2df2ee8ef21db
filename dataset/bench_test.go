package dataset

// Pool/cache benchmarks, snapshotted by scripts/bench_pool.sh into
// BENCH_pool.json: bringing a synthetic dataset to ready-to-serve (Load
// plus Session.Warm — what a pool admission waits for) cold vs from a
// cache entry (the acceptance bar is >= 8x), and concurrent
// mixed-dataset query throughput through the pool (the multi-tenant
// successor of BenchmarkSessionConcurrentQueries' single-session
// number).

import (
	"context"
	"sync"
	"testing"

	policyscope "github.com/policyscope/policyscope"
)

// benchConfig is the "paper" preset — the dataset a cold server start
// would build.
func benchConfig() policyscope.Config { return policyscope.DefaultConfig() }

// readyToServe is one pool admission's work: load the study and warm a
// session over it.
func readyToServe(b *testing.B, src Source) {
	b.Helper()
	study, err := src.Load(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if err := policyscope.NewSessionFromStudy(study).Warm(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDatasetColdGenerate is the price of a cold start: full
// synthetic generation + BGP simulation to convergence + collection,
// warmed.
func BenchmarkDatasetColdGenerate(b *testing.B) {
	src := NewSynthetic(benchConfig())
	for i := 0; i < b.N; i++ {
		readyToServe(b, src)
	}
}

// BenchmarkDatasetCacheHit is the same dataset through a filled cache:
// deterministic topology regeneration plus a converged-state load from
// disk (tables decoded, base engine restored), warmed.
func BenchmarkDatasetCacheHit(b *testing.B) {
	src := NewCached(NewSynthetic(benchConfig()), b.TempDir())
	if _, err := src.Load(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readyToServe(b, src)
	}
}

var (
	benchPoolOnce sync.Once
	benchPool     *Pool
)

// sharedPool holds three warmed universes; pool capacity covers them
// all, so the benchmark measures steady-state routing, not churn.
func sharedPool(b *testing.B) *Pool {
	b.Helper()
	benchPoolOnce.Do(func() {
		cat := NewCatalog()
		for i, cfg := range []policyscope.Config{
			{NumASes: 800, Seed: 42, CollectorPeers: 24, LookingGlassASes: 12},
			{NumASes: 400, Seed: 7, CollectorPeers: 16, LookingGlassASes: 8},
			{NumASes: 200, Seed: 9, CollectorPeers: 12, LookingGlassASes: 6},
		} {
			name := []string{"large", "mid", "small"}[i]
			if err := cat.Register(name, NewSynthetic(cfg)); err != nil {
				b.Fatal(err)
			}
		}
		pool := NewPool(cat, 3)
		for _, name := range cat.Names() {
			sess, err := pool.Session(context.Background(), name)
			if err != nil {
				b.Fatal(err)
			}
			// Warm the lazy gates each query mix touches.
			for _, q := range []string{"table2", "table5", "table10", "decision"} {
				if _, err := sess.Run(context.Background(), q, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
		benchPool = pool
	})
	if benchPool == nil {
		b.Skip("pool construction failed earlier")
	}
	return benchPool
}

// BenchmarkPoolConcurrentMixedQueries rotates parallel queries across
// the three resident datasets — the multi-tenant serving pattern. Each
// op is one pool resolution plus one registry query.
func BenchmarkPoolConcurrentMixedQueries(b *testing.B) {
	pool := sharedPool(b)
	names := pool.Catalog().Names()
	queries := []string{"table2", "table5", "table10", "decision"}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			name := names[i%len(names)]
			q := queries[(i/len(names))%len(queries)]
			i++
			sess, err := pool.Session(context.Background(), name)
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := sess.Run(context.Background(), q, nil); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}
