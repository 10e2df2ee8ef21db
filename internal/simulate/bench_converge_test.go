package simulate

// The cold-convergence benchmarks. The subject is the paper preset's
// topology (600 ASes, the scale policyscope.DefaultConfig simulates)
// with 24 vantage points:
//
//   - BenchmarkConvergeCold is the atom-sharded, allocation-lean engine
//     end to end (engine_equivalence_test proves its results
//     byte-identical to the legacyRun reference);
//   - BenchmarkConvergeColdNoDedup isolates the zero-alloc core's share
//     (atom dedup disabled);
//   - BenchmarkConvergeAllocs runs single-threaded so allocs/op is
//     stable (run with -benchmem).
//
// The gated trajectory lives in bench/ (simulate.converge_ms).

import (
	"sync"
	"testing"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/topogen"
)

var (
	convergeOnce    sync.Once
	convergeTopo    *topogen.Topology
	convergeVantage []bgp.ASN
)

// convergeBenchSetup memoizes the paper-preset topology shared by the
// converge benchmarks.
func convergeBenchSetup(b *testing.B) (*topogen.Topology, []bgp.ASN) {
	b.Helper()
	convergeOnce.Do(func() {
		convergeTopo, convergeVantage = equivalenceTopo(b, 600, 42)
	})
	if convergeTopo == nil {
		b.Skip("topology generation failed earlier")
	}
	return convergeTopo, convergeVantage
}

func BenchmarkConvergeCold(b *testing.B) {
	topo, vantage := convergeBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(topo, Options{VantagePoints: vantage})
		if err != nil || len(res.Tables) == 0 {
			b.Fatalf("err %v", err)
		}
	}
	b.ReportMetric(float64(len(topo.PrefixOrigin)), "prefixes")
}

func BenchmarkConvergeColdNoDedup(b *testing.B) {
	topo, vantage := convergeBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(topo, Options{VantagePoints: vantage, DisableAtomDedup: true})
		if err != nil || len(res.Tables) == 0 {
			b.Fatalf("err %v", err)
		}
	}
}

// BenchmarkConvergeAllocs runs the loop single-threaded so allocs/op is
// deterministic.
func BenchmarkConvergeAllocs(b *testing.B) {
	topo, vantage := convergeBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(topo, Options{VantagePoints: vantage, Parallelism: 1})
		if err != nil || len(res.Tables) == 0 {
			b.Fatalf("err %v", err)
		}
	}
}
