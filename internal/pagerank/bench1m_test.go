package pagerank

import (
	"sync"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/testutil"
	"spammass/internal/webgen"
)

var solve1M struct {
	sync.Once
	g    *graph.Graph
	core []graph.NodeID
	err  error
}

// solve1MGraph generates the million-host synthetic web and its
// assembled good core once and shares them across the Solve1M
// benchmarks: webgen structure (power-law degrees, isolated fringe,
// spam farms), not a uniform random graph.
func solve1MGraph(b *testing.B) (*graph.Graph, []graph.NodeID) {
	solve1M.Do(func() {
		var h *graph.HostGraph
		h, solve1M.core, solve1M.err = testutil.Web(webgen.DefaultConfig(1_000_000))
		if solve1M.err == nil {
			solve1M.g = h.Graph
		}
	})
	if solve1M.err != nil {
		b.Fatalf("generate 1M-host graph: %v", solve1M.err)
	}
	return solve1M.g, solve1M.core
}

// benchSolve1M times full cold solves on the 1M-host graph, the
// production shape of a snapshot refresh, each to the epsilon its
// algorithm serves at: Gauss-Southwell at spamserver's ε = 1e-11,
// Jacobi at 1e-10, where the push first serves at least the sweep's
// accuracy. Both agree to L1 ≤ 1e-9 (TestAllAlgorithmsParity,
// TestGaussSouthwellMatchesJacobi). The push touches a fraction of the
// edges the sweep needs for the same answer, so compare ns/op, not
// ns/edge, across algorithms; edges/op and pushes/op are exact work
// counters, so a kernel change that keeps them shows its saving in
// ns/edge alone. Raw sweep throughput is bench/'s
// pagerank.sweep_edges_per_s_w1 / _wN.
//
// core selects the batch: the uniform jump alone, or the (p, p′)
// pair of a refresh, the uniform and the core jump, pushed
// concurrently at Workers 2.
func benchSolve1M(b *testing.B, cfg Config, core bool) {
	g, nodes := solve1MGraph(b)
	n := g.NumNodes()
	cfg.Damping = 0.85
	cfg.Epsilon = 1e-10
	if cfg.Algorithm == AlgoGaussSouthwell {
		cfg.Epsilon = 1e-11
	}
	cfg.MaxIter = 1000
	vs := []Vector{UniformJump(n)}
	if core {
		vs = append(vs, ScaledCoreJump(n, nodes, 0.85))
	}
	eng, err := NewEngine(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ResetTimer()
	var edges, pushes int64
	for i := 0; i < b.N; i++ {
		rs, err := eng.SolveMany(vs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if !r.Converged {
				b.Fatal("solve did not converge")
			}
		}
		edges += rs[0].Stats.EdgesSwept
		pushes += rs[0].Stats.Pushes
	}
	b.StopTimer()
	b.ReportMetric(float64(edges)/float64(b.N), "edges/op")
	if cfg.Algorithm == AlgoGaussSouthwell {
		b.ReportMetric(float64(pushes)/float64(b.N), "pushes/op")
	}
	if edges > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
	}
}

func BenchmarkSolve1MFlatJacobi(b *testing.B) { benchSolve1M(b, Config{}, false) }

func BenchmarkSolve1MGaussSouthwell(b *testing.B) {
	benchSolve1M(b, Config{Algorithm: AlgoGaussSouthwell}, false)
}

// BenchmarkSolve1MGaussSouthwellPair is the solve of a refresh: p and
// p′ pushed at once on two workers.
func BenchmarkSolve1MGaussSouthwellPair(b *testing.B) {
	benchSolve1M(b, Config{Algorithm: AlgoGaussSouthwell, Workers: 2}, true)
}
