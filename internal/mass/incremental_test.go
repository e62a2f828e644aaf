package mass

import (
	"math"
	"math/rand"
	"testing"

	"spammass/internal/delta"
	"spammass/internal/goodcore"
	"spammass/internal/graph"
	"spammass/internal/pagerank"
	"spammass/internal/testutil"
	"spammass/internal/webgen"
)

// churnedWorld generates a 10k-host world with a good core, evolves
// one spam generation (Section 3.4 churn), and returns the old host
// graph, the applied delta result, and the core.
func churnedWorld(t *testing.T) (old *graph.HostGraph, res *delta.Result, core []graph.NodeID) {
	t.Helper()
	w, err := webgen.Generate(webgen.DefaultConfig(10000))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	c, err := goodcore.Assemble(w.Names, w.DirectoryMembers)
	if err != nil {
		t.Fatalf("core: %v", err)
	}
	next, err := webgen.EvolveSpam(w, webgen.EvolveConfig{Seed: 2})
	if err != nil {
		t.Fatalf("evolve: %v", err)
	}
	old, err = graph.NewHostGraph(w.Graph, w.Names)
	if err != nil {
		t.Fatalf("host graph: %v", err)
	}
	newH, err := graph.NewHostGraph(next.Graph, next.Names)
	if err != nil {
		t.Fatalf("host graph: %v", err)
	}
	b, err := delta.Diff(old, newH)
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if b.NumOps() == 0 {
		t.Fatal("churn produced an empty delta")
	}
	res, err = delta.Apply(old, b)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !res.Hosts.Graph.Equal(newH.Graph) {
		t.Fatal("applied churn differs from evolved graph")
	}
	return old, res, c.Nodes
}

// TestWarmMatchesCold is the acceptance bound of the incremental
// path: after one full churn generation — the most violent delta the
// Section 3.4 model produces, every spam farm replaced — estimates
// computed warm-started from the previous generation's vectors must
// agree with a cold estimation on the same graph to L1 ≤ 1e-9. (A
// full generation swap perturbs too much of the PageRank mass for the
// warm start to save work; TestWarmSavesEdgesSmallChurn covers the
// savings claim at realistic churn rates.)
func TestWarmMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-host estimation in -short mode")
	}
	old, res, core := churnedWorld(t)
	opts := DefaultOptions()

	// Previous generation's estimates: the warm-start source.
	prevEst, err := EstimateFromCore(old.Graph, core, opts)
	if err != nil {
		t.Fatalf("previous estimate: %v", err)
	}

	newCore := res.RemapNodes(core)
	if len(newCore) != len(core) {
		t.Fatalf("churn removed core hosts: %d → %d", len(core), len(newCore))
	}
	n2 := res.Hosts.Graph.NumNodes()
	warm, err := RemapWarmStart(prevEst, res.Remap, n2, newCore, opts.Gamma)
	if err != nil {
		t.Fatalf("remap warm start: %v", err)
	}

	es, err := NewEstimator(res.Hosts.Graph, opts)
	if err != nil {
		t.Fatalf("estimator: %v", err)
	}
	defer es.Close()
	warmEst, err := es.EstimateFromCoreWarm(newCore, warm)
	if err != nil {
		t.Fatalf("warm estimate: %v", err)
	}
	coldEst, err := es.EstimateFromCore(newCore)
	if err != nil {
		t.Fatalf("cold estimate: %v", err)
	}

	const bound = 1e-9
	for _, vec := range []struct {
		name       string
		warm, cold pagerank.Vector
	}{
		{"p", warmEst.P, coldEst.P},
		{"p_core", warmEst.PCore, coldEst.PCore},
		{"abs_mass", warmEst.Abs, coldEst.Abs},
	} {
		if d := vec.warm.Clone().Sub(vec.cold).Norm1(); d > bound {
			t.Errorf("%s: warm vs cold L1 = %.3e > %.0e", vec.name, d, bound)
		}
	}

	if !warmEst.SolveStats.WarmStarted {
		t.Error("warm solve not marked WarmStarted")
	}
	if warmEst.SolveStats.InitialResidual <= 0 {
		t.Error("warm solve recorded no initial residual")
	}
	if coldEst.SolveStats.WarmStarted {
		t.Error("cold solve marked WarmStarted")
	}
}

// smallChurnBatch builds a ~rate churn batch against h: roughly
// rate/2 of the edges removed and the same number of fresh random
// edges added.
func smallChurnBatch(rng *rand.Rand, h *graph.HostGraph, rate float64) *delta.Batch {
	b := &delta.Batch{}
	h.Graph.Edges(func(x, y graph.NodeID) bool {
		if rng.Float64() < rate/2 {
			b.Ops = append(b.Ops, delta.RemoveEdgeOp(h.Names[x], h.Names[y]))
		}
		return true
	})
	n := h.Graph.NumNodes()
	target := int(float64(h.Graph.NumEdges()) * rate / 2)
	for added := 0; added < target; {
		x := graph.NodeID(rng.Intn(n))
		y := graph.NodeID(rng.Intn(n))
		if x == y || h.Graph.HasEdge(x, y) {
			continue
		}
		b.Ops = append(b.Ops, delta.AddEdgeOp(h.Names[x], h.Names[y]))
		added++
	}
	return b.Dedup()
}

// TestWarmSavesEdgesSmallChurn pins the incremental payoff under the
// server's solve — Gauss-Southwell, ε = 1e-11, the columns pushed
// concurrently, as spamserver's solverConfig sets it: at 1% edge churn
// the warm-started (p, p') push must touch at most 0.8× the edges of a
// cold push on the same graph, the pull pass that builds the warm
// residual included, with the results still inside the L1 agreement
// bound. A push spends edges only where residual circulates, and the
// remapped seed leaves residual only around the churn and where its
// mass flows.
func TestWarmSavesEdgesSmallChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-host estimation in -short mode")
	}
	w, err := webgen.Generate(webgen.DefaultConfig(10000))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	c, err := goodcore.Assemble(w.Names, w.DirectoryMembers)
	if err != nil {
		t.Fatalf("core: %v", err)
	}
	h, err := graph.NewHostGraph(w.Graph, w.Names)
	if err != nil {
		t.Fatalf("host graph: %v", err)
	}
	opts := DefaultOptions()
	opts.Solver = pagerank.Config{Damping: 0.85, Epsilon: 1e-11, MaxIter: 1000, Algorithm: pagerank.AlgoGaussSouthwell}
	prevEst, err := EstimateFromCore(h.Graph, c.Nodes, opts)
	if err != nil {
		t.Fatalf("previous estimate: %v", err)
	}

	res, err := delta.Apply(h, smallChurnBatch(rand.New(rand.NewSource(5)), h, 0.01))
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	newCore := res.RemapNodes(c.Nodes)
	warm, err := RemapWarmStart(prevEst, res.Remap, res.Hosts.Graph.NumNodes(), newCore, opts.Gamma)
	if err != nil {
		t.Fatalf("remap warm start: %v", err)
	}
	es, err := NewEstimator(res.Hosts.Graph, opts)
	if err != nil {
		t.Fatalf("estimator: %v", err)
	}
	defer es.Close()
	warmEst, err := es.EstimateFromCoreWarm(newCore, warm)
	if err != nil {
		t.Fatalf("warm estimate: %v", err)
	}
	coldEst, err := es.EstimateFromCore(newCore)
	if err != nil {
		t.Fatalf("cold estimate: %v", err)
	}
	if d := warmEst.P.Clone().Sub(coldEst.P).Norm1(); d > 1e-9 {
		t.Errorf("warm vs cold p: L1 = %.3e", d)
	}
	we, ce := warmEst.SolveStats.EdgesSwept, coldEst.SolveStats.EdgesSwept
	t.Logf("1%% churn edges: warm %d, cold %d (%.3fx)", we, ce, float64(we)/float64(ce))
	if float64(we) > 0.8*float64(ce) {
		t.Errorf("warm start saved too little: warm %d edges, cold %d (want ≤ 0.8x)", we, ce)
	}
	if warmEst.SolveStats.InitialResidual >= coldEst.SolveStats.InitialResidual {
		t.Errorf("warm initial residual %.3e not below cold %.3e",
			warmEst.SolveStats.InitialResidual, coldEst.SolveStats.InitialResidual)
	}
}

func TestRemapWarmStartSeedsNewNodes(t *testing.T) {
	// Tiny world: 3 nodes, remove node 1, add two new ones.
	prev := &Estimates{
		P:     pagerank.Vector{0.5, 0.3, 0.2},
		PCore: pagerank.Vector{0.4, 0.2, 0.1},
	}
	remap := []int64{0, -1, 1}
	core := []graph.NodeID{0}
	w, err := RemapWarmStart(prev, remap, 4, core, 0.85)
	if err != nil {
		t.Fatalf("RemapWarmStart: %v", err)
	}
	if len(w.P) != 4 || len(w.PCore) != 4 {
		t.Fatalf("warm start lengths %d/%d, want 4", len(w.P), len(w.PCore))
	}
	// Survivors carry their old scores.
	if w.P[0] != 0.5 || w.P[1] != 0.2 {
		t.Fatalf("survivor P seeds = %v", w.P)
	}
	// Survivors copy prev even inside the core: the previous solution
	// beats the jump value as a seed.
	if w.PCore[0] != 0.4 || w.PCore[1] != 0.1 {
		t.Fatalf("survivor PCore seeds = %v, want 0.4/0.1", w.PCore[:2])
	}
	// New nodes sit at the jump values: 1/n uniform, 0 outside the core.
	if w.P[2] != 0.25 || w.P[3] != 0.25 {
		t.Fatalf("new-node P seeds = %v, want 0.25", w.P[2:])
	}
	if w.PCore[2] != 0 || w.PCore[3] != 0 {
		t.Fatalf("new-node PCore seeds = %v, want 0", w.PCore[2:])
	}
}

func TestRemapWarmStartErrors(t *testing.T) {
	prev := &Estimates{P: pagerank.Vector{1}, PCore: pagerank.Vector{1}}
	if _, err := RemapWarmStart(nil, nil, 1, nil, 0.85); err == nil {
		t.Error("nil estimates accepted")
	}
	if _, err := RemapWarmStart(prev, []int64{0, 1}, 2, nil, 0.85); err == nil {
		t.Error("remap length mismatch accepted")
	}
	if _, err := RemapWarmStart(prev, []int64{5}, 2, nil, 0.85); err == nil {
		t.Error("out-of-range remap target accepted")
	}
	if _, err := RemapWarmStart(prev, []int64{0}, 1, nil, 1.5); err == nil {
		t.Error("gamma out of range accepted")
	}
}

func TestEstimateFromCoreWarmValidates(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}})
	es, err := NewEstimator(g, DefaultOptions())
	if err != nil {
		t.Fatalf("estimator: %v", err)
	}
	defer es.Close()
	core := []graph.NodeID{0}
	// Wrong-length warm start must be rejected.
	bad := &WarmStart{P: make(pagerank.Vector, 2), PCore: make(pagerank.Vector, 3)}
	if _, err := es.EstimateFromCoreWarm(core, bad); err == nil {
		t.Error("short warm start accepted")
	}
	// Nil warm start falls back to the cold path.
	cold, err := es.EstimateFromCoreWarm(core, nil)
	if err != nil {
		t.Fatalf("nil warm start: %v", err)
	}
	if cold.SolveStats.WarmStarted {
		t.Error("nil warm start marked WarmStarted")
	}
}

// TestEstimateFromCoreWarmKeepsWarmStart: the warm start is the
// caller's, and a root-API caller may hold on to it (to seed another
// solve, or to diff against the result), so the estimation must leave
// warm.P and warm.PCore bit-identical on every solver.
func TestEstimateFromCoreWarmKeepsWarmStart(t *testing.T) {
	n := 600
	g := testutil.RandomGraph(rand.New(rand.NewSource(17)), n, 5)
	core := []graph.NodeID{1, 2, 3, 5, 8, 13}
	push := DefaultOptions()
	push.Solver = pagerank.Config{Damping: 0.85, Epsilon: 1e-11, MaxIter: 1000, Algorithm: pagerank.AlgoGaussSouthwell}
	for _, opts := range []Options{DefaultOptions(), push} {
		es, err := NewEstimator(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		// A seed away from the fixpoint, so any in-place repair shows.
		warm := &WarmStart{P: pagerank.UniformJump(n), PCore: pagerank.ScaledCoreJump(n, core, opts.Gamma)}
		wantP, wantCore := warm.P.Clone(), warm.PCore.Clone()
		if _, err := es.EstimateFromCoreWarm(core, warm); err != nil {
			t.Fatal(err)
		}
		es.Close()
		for i := range wantP {
			if math.Float64bits(warm.P[i]) != math.Float64bits(wantP[i]) || math.Float64bits(warm.PCore[i]) != math.Float64bits(wantCore[i]) {
				t.Errorf("%v: warm start changed at node %d: P %v → %v, PCore %v → %v",
					opts.Solver.Algorithm, i, wantP[i], warm.P[i], wantCore[i], warm.PCore[i])
				break
			}
		}
	}
}
