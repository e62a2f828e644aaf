package pagerank

import (
	"sync"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/testutil"
	"spammass/internal/webgen"
)

// paperMeanOutDeg is the webgen MeanOutDeg that gives ≈13.3 edges per
// host, the density of the paper's crawl; webgen's default gives 2.3.
const paperMeanOutDeg = 100

// solve1MWorld is one million-host world, generated once per density
// and shared across the Solve1M benchmarks.
type solve1MWorld struct {
	sync.Once
	g    *graph.Graph
	core []graph.NodeID
	err  error
}

var solve1M, solve1MPaper solve1MWorld

// solve1MGraph generates the million-host synthetic web and its
// assembled good core, at webgen's default density or, with paper set,
// at the paper's: webgen structure (power-law degrees, isolated fringe,
// spam farms), not a uniform random graph.
func solve1MGraph(b *testing.B, paper bool) (*graph.Graph, []graph.NodeID) {
	w, cfg := &solve1M, webgen.DefaultConfig(1_000_000)
	if paper {
		w, cfg.MeanOutDeg = &solve1MPaper, paperMeanOutDeg
	}
	w.Do(func() {
		var h *graph.HostGraph
		h, w.core, w.err = testutil.Web(cfg)
		if w.err == nil {
			w.g = h.Graph
		}
	})
	if w.err != nil {
		b.Fatalf("generate 1M-host graph: %v", w.err)
	}
	return w.g, w.core
}

// benchSolve1M times full cold solves on a 1M-host graph, the
// production shape of a snapshot refresh, each to the epsilon its
// algorithm serves at: Gauss-Southwell at spamserver's ε = 3e-12,
// Jacobi at 1e-10. Both agree to L1 ≤ 1e-9 (TestAllAlgorithmsParity,
// TestGaussSouthwellMatchesJacobi). The push touches a fraction of the
// edges the sweep needs for the same answer, so compare ns/op, not
// ns/edge, across algorithms; edges/op and pushes/op are exact work
// counters, so a kernel change that keeps them shows its saving in
// ns/edge alone. block/frac is the share of hosts the push solves over
// (those with out-links); the rest are set in one pass after it. Raw
// sweep throughput is bench/'s pagerank.sweep_edges_per_s_w1 / _wN.
//
// core selects the batch: the uniform jump alone, or the (p, p′)
// pair of a refresh, the uniform and the core jump, pushed
// concurrently at Workers 2.
func benchSolve1M(b *testing.B, cfg Config, core, paper bool) {
	g, nodes := solve1MGraph(b, paper)
	n := g.NumNodes()
	cfg.Damping = 0.85
	cfg.Epsilon = 1e-10
	if cfg.Algorithm == AlgoGaussSouthwell {
		cfg.Epsilon = 3e-12
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
		b.ReportMetric(float64(len(eng.block().nodes))/float64(n), "block/frac")
	}
	if edges > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
	}
}

func BenchmarkSolve1MFlatJacobi(b *testing.B) { benchSolve1M(b, Config{}, false, false) }

func BenchmarkSolve1MGaussSouthwell(b *testing.B) {
	b.Run("density=default", func(b *testing.B) {
		benchSolve1M(b, Config{Algorithm: AlgoGaussSouthwell}, false, false)
	})
	b.Run("density=paper", func(b *testing.B) {
		benchSolve1M(b, Config{Algorithm: AlgoGaussSouthwell}, false, true)
	})
}

// BenchmarkSolve1MGaussSouthwellPair is the solve of a refresh: p and
// p′ pushed at once on two workers, at webgen's default density and at
// the paper's.
func BenchmarkSolve1MGaussSouthwellPair(b *testing.B) {
	b.Run("density=default", func(b *testing.B) {
		benchSolve1M(b, Config{Algorithm: AlgoGaussSouthwell, Workers: 2}, true, false)
	})
	b.Run("density=paper", func(b *testing.B) {
		benchSolve1M(b, Config{Algorithm: AlgoGaussSouthwell, Workers: 2}, true, true)
	})
}
