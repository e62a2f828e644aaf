package pagerank

import (
	"sync"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/webgen"
)

var solve1M struct {
	sync.Once
	world *webgen.World
	err   error
}

// solve1MGraph generates the million-host synthetic web once and
// shares it across the Solve1M benchmarks: webgen structure (power-law
// degrees, isolated fringe, spam farms), not a uniform random graph.
func solve1MGraph(b *testing.B) *graph.Graph {
	solve1M.Do(func() {
		solve1M.world, solve1M.err = webgen.Generate(webgen.DefaultConfig(1_000_000))
	})
	if solve1M.err != nil {
		b.Fatalf("generate 1M-host graph: %v", solve1M.err)
	}
	return solve1M.world.Graph
}

// benchSolve1M times a full cold solve to Epsilon=1e-10 on the 1M-host
// graph — the production shape of a snapshot refresh. The two
// algorithms do different amounts of edge work for the same answer:
// Gauss-Southwell reaches the fixpoint touching a fraction of the
// edges the Jacobi sweep needs, so compare ns/op, not edges/s. This is
// the pair ROADMAP's cold-solve algorithm choice is decided on; raw
// sweep throughput is bench/'s pagerank.sweep_edges_per_s_w1 / _wN.
// Both produce scores agreeing to L1 ≤ 1e-9 (TestAllAlgorithmsParity,
// TestGaussSouthwellMatchesJacobi).
func benchSolve1M(b *testing.B, cfg Config) {
	g := solve1MGraph(b)
	cfg.Damping = 0.85
	cfg.Epsilon = 1e-10
	cfg.MaxIter = 1000
	eng, err := NewEngine(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	v := UniformJump(g.NumNodes())
	b.ResetTimer()
	var edges int64
	for i := 0; i < b.N; i++ {
		r, err := eng.Solve(v)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Converged {
			b.Fatal("solve did not converge")
		}
		edges += r.Stats.EdgesSwept
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(edges)/secs, "edges/s")
	}
}

func BenchmarkSolve1MFlatJacobi(b *testing.B) { benchSolve1M(b, Config{}) }

func BenchmarkSolve1MGaussSouthwell(b *testing.B) {
	benchSolve1M(b, Config{Algorithm: AlgoGaussSouthwell})
}
