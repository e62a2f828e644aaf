package mass

import (
	"math/rand"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/obs"
	"spammass/internal/testutil"
)

func benchSetup(n int) (*graph.Graph, []graph.NodeID) {
	rng := rand.New(rand.NewSource(1))
	g := testutil.RandomGraph(rng, n, 8)
	core := make([]graph.NodeID, n/150)
	for i := range core {
		core[i] = graph.NodeID(i * 150)
	}
	return g, core
}

// BenchmarkEstimateFromCore10k times the batched engine: both PageRank
// solves (p and p') share one adjacency sweep per iteration via
// Engine.SolveMany. No observability sink is attached, so the
// instrumented paths stay on their nil no-ops.
func BenchmarkEstimateFromCore10k(b *testing.B) {
	g, core := benchSetup(10000)
	b.ResetTimer()
	var est *Estimates
	var err error
	for i := 0; i < b.N; i++ {
		if est, err = EstimateFromCore(g, core, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if est.SolveStats != nil {
		b.ReportMetric(est.SolveStats.EdgesPerSecond, "edges/s")
	}
}

// BenchmarkEstimateFromCore10kObs is the same workload with the
// observability sinks attached (metrics registry and span tree, fresh
// per iteration as a CLI run would hold them); comparing it against
// the plain 10k benchmark bounds the instrumentation overhead.
func BenchmarkEstimateFromCore10kObs(b *testing.B) {
	g, core := benchSetup(10000)
	b.ResetTimer()
	var est *Estimates
	var err error
	for i := 0; i < b.N; i++ {
		octx := obs.NewContext(obs.NewRegistry(), obs.NewSpan("bench"))
		opts := DefaultOptions()
		opts.Solver.Obs = octx
		if est, err = EstimateFromCore(g, core, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if est.SolveStats != nil {
		b.ReportMetric(est.SolveStats.EdgesPerSecond, "edges/s")
	}
}
