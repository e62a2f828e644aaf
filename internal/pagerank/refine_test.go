package pagerank

import (
	"math/rand"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/testutil"
)

// randomEdgeList builds a connected-ish random edge list the tests can
// perturb before handing to graph.FromEdges.
func randomEdgeList(rng *rand.Rand, n, deg int) [][2]graph.NodeID {
	var edges [][2]graph.NodeID
	for x := 0; x < n; x++ {
		for i := 0; i < 1+rng.Intn(deg); i++ {
			y := graph.NodeID(rng.Intn(n))
			if int(y) != x {
				edges = append(edges, [2]graph.NodeID{graph.NodeID(x), y})
			}
		}
	}
	return edges
}

// TestRefineFromZeroImproves drives Refine from the worst possible
// seed. Building a full solution by pushes may exhaust the work budget
// before ε, so Refine owes no convergence — only a residual materially
// reduced and an iterate the solver still converges from, to the right
// fixpoint.
func TestRefineFromZeroImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testutil.RandomGraph(rng, 500, 5)
	n := g.NumNodes()
	v := UniformJump(n)
	eng, err := NewEngine(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	want, err := eng.Solve(v)
	if err != nil {
		t.Fatal(err)
	}

	x := make(Vector, n)
	st, err := eng.Refine(x, v, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pushes == 0 || st.Scans == 0 {
		t.Errorf("refine reported no work: %+v", st)
	}
	if st.FinalResidual > st.InitialResidual/10 {
		t.Errorf("residual only dropped %.2e → %.2e", st.InitialResidual, st.FinalResidual)
	}
	cfg := eng.Config()
	cfg.WarmStart = x
	res, err := eng.SolveConfig(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := testutil.MaxAbsDiff(want.Scores, res.Scores); d > 1e-10 {
		t.Errorf("solve from refined seed differs from cold solve by %v", d)
	}
}

// TestRefineRepairsPerturbedWarmStart: after a small graph change,
// refining the stale solution leaves the solver a seed it finishes
// from in fewer sweeps than a cold start.
func TestRefineRepairsPerturbedWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edges := randomEdgeList(rng, 800, 5)
	g := graph.FromEdges(800, edges)
	// Rewire a handful of edges: drop the first few, add a few fresh.
	churned := append([][2]graph.NodeID{}, edges[5:]...)
	for i := 0; i < 5; i++ {
		churned = append(churned, [2]graph.NodeID{graph.NodeID(rng.Intn(800)), graph.NodeID(rng.Intn(800))})
	}
	g2 := graph.FromEdges(800, churned)

	v := UniformJump(800)
	eng, err := NewEngine(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	prev, err := eng.Solve(v)
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(g2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	cold, err := eng2.Solve(v)
	if err != nil {
		t.Fatal(err)
	}

	seed := prev.Scores.Clone()
	st, err := eng2.Refine(seed, v, eng2.Config().Epsilon/2)
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalResidual > st.InitialResidual/100 {
		t.Errorf("10-edge churn residual only dropped %.2e → %.2e", st.InitialResidual, st.FinalResidual)
	}
	cfg := eng2.Config()
	cfg.WarmStart = seed
	warm, err := eng2.SolveConfig(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// On a structureless random graph the tail iterations are dominated
	// by slow near-c modes that churn excites nearly as much as a cold
	// start does, so only a modest iteration win is guaranteed here; the
	// 2x-and-beyond claims are pinned on the synthetic web graphs in
	// internal/mass and internal/delta, whose residuals stay localized.
	if warm.Stats.Iterations >= cold.Iterations {
		t.Errorf("solver needed %d iterations after refine, cold %d",
			warm.Stats.Iterations, cold.Iterations)
	}
	if d := testutil.MaxAbsDiff(cold.Scores, warm.Scores); d > 1e-10 {
		t.Errorf("refined warm solve differs from cold by %v", d)
	}
}

func TestRefineValidation(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}})
	eng, err := NewEngine(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := UniformJump(3)
	x := make(Vector, 3)
	if _, err := eng.Refine(make(Vector, 2), v, 1e-9); err == nil {
		t.Error("short iterate accepted")
	}
	if _, err := eng.Refine(x, make(Vector, 4), 1e-9); err == nil {
		t.Error("long jump vector accepted")
	}
	if _, err := eng.Refine(x, v, 0); err == nil {
		t.Error("zero tolerance accepted")
	}
	if _, err := eng.Refine(x, v, -1); err == nil {
		t.Error("negative tolerance accepted")
	}
	eng.Close()
	if _, err := eng.Refine(x, v, 1e-9); err == nil {
		t.Error("closed engine accepted refine")
	}

	cfg := DefaultConfig()
	cfg.Algorithm = AlgoPowerIteration
	peng, err := NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer peng.Close()
	if _, err := peng.Refine(x, v, 1e-9); err == nil {
		t.Error("power-iteration engine accepted refine")
	}
}

// TestWarmStartsPerVector covers the per-column warm starts of a
// batched solve: seeding each column with its own converged solution
// must verify in one iteration and mark the stats warm.
func TestWarmStartsPerVector(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := testutil.RandomGraph(rng, 400, 5)
	n := g.NumNodes()
	eng, err := NewEngine(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	jumps := []Vector{UniformJump(n), ScaledCoreJump(n, []graph.NodeID{1, 2, 3}, 0.85)}
	cold, err := eng.SolveMany(jumps)
	if err != nil {
		t.Fatal(err)
	}

	cfg := eng.Config()
	cfg.WarmStarts = []Vector{cold[0].Scores.Clone(), cold[1].Scores.Clone()}
	warm, err := eng.SolveManyConfig(jumps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := range warm {
		if warm[j].Stats.Iterations > 1 {
			t.Errorf("column %d: %d iterations from exact seed", j, warm[j].Stats.Iterations)
		}
		if d := testutil.MaxAbsDiff(cold[j].Scores, warm[j].Scores); d > 1e-10 {
			t.Errorf("column %d: warm differs from cold by %v", j, d)
		}
	}
	st := warm[0].Stats
	if !st.WarmStarted {
		t.Error("batch stats not marked WarmStarted")
	}
	if st.InitialResidual <= 0 {
		t.Errorf("InitialResidual = %v, want > 0", st.InitialResidual)
	}
	if cold[0].Stats.WarmStarted {
		t.Error("cold stats marked WarmStarted")
	}
}

func TestWarmStartsValidation(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}})
	eng, err := NewEngine(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	jumps := []Vector{UniformJump(3), UniformJump(3)}

	cfg := eng.Config()
	cfg.WarmStart = make(Vector, 3)
	cfg.WarmStarts = []Vector{make(Vector, 3), make(Vector, 3)}
	if _, err := eng.SolveManyConfig(jumps, cfg); err == nil {
		t.Error("both WarmStart and WarmStarts accepted")
	}

	cfg = eng.Config()
	cfg.WarmStarts = []Vector{make(Vector, 3)}
	if _, err := eng.SolveManyConfig(jumps, cfg); err == nil {
		t.Error("warm-start count mismatch accepted")
	}

	cfg = eng.Config()
	cfg.WarmStarts = []Vector{make(Vector, 3), make(Vector, 2)}
	if _, err := eng.SolveManyConfig(jumps, cfg); err == nil {
		t.Error("short warm start accepted")
	}
}
