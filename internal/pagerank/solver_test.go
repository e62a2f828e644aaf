package pagerank

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spammass/internal/graph"
	"spammass/internal/paperfig"
	"spammass/internal/testutil"
)

const c = paperfig.Damping

func scaled(v Vector) Vector { return v.Scaled(c) }

// TestFigure1ClosedForm checks Algorithm 1 against the paper's closed
// form for Figure 1: scaled p_x = 1 + 3c + kc², p_s0 = 1 + kc, and all
// other nodes 1.
func TestFigure1ClosedForm(t *testing.T) {
	for _, k := range []int{0, 1, 2, 3, 5, 10, 25} {
		f := paperfig.NewFigure1(k)
		res, err := Jacobi(f.Graph, UniformJump(f.Graph.NumNodes()), DefaultConfig())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.Converged {
			t.Fatalf("k=%d: did not converge in %d iterations", k, res.Iterations)
		}
		s := scaled(res.Scores)
		if want := f.ScaledPageRankX(c); !testutil.AlmostEqual(s[f.X], want, 1e-8) {
			t.Errorf("k=%d: scaled p_x = %v, want %v", k, s[f.X], want)
		}
		if want := 1 + float64(k)*c; !testutil.AlmostEqual(s[f.S0], want, 1e-8) {
			t.Errorf("k=%d: scaled p_s0 = %v, want %v", k, s[f.S0], want)
		}
		for _, id := range []graph.NodeID{f.G0, f.G1} {
			if !testutil.AlmostEqual(s[id], 1, 1e-8) {
				t.Errorf("k=%d: scaled p_%d = %v, want 1", k, id, s[id])
			}
		}
	}
}

// TestFigure2ClosedForm checks the Figure 2 PageRank column of Table 1.
func TestFigure2ClosedForm(t *testing.T) {
	f := paperfig.NewFigure2()
	want := paperfig.ExpectedTable1(c)
	res, err := Jacobi(f.Graph, UniformJump(12), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := scaled(res.Scores)
	ids, labels := f.NodeOrder()
	for i, id := range ids {
		if !testutil.AlmostEqual(s[id], want.P[i], 1e-8) {
			t.Errorf("scaled p_%s = %v, want %v", labels[i], s[id], want.P[i])
		}
	}
	// Spot-check against the rounded numbers printed in the paper.
	if math.Abs(s[f.X]-9.33) > 0.005 {
		t.Errorf("scaled p_x = %v, paper prints 9.33", s[f.X])
	}
	if math.Abs(s[f.S[0]]-4.4) > 0.005 {
		t.Errorf("scaled p_s0 = %v, paper prints 4.4", s[f.S[0]])
	}
}

// TestAllAlgorithmsParity is the fidelity bound of the solver tier:
// batched Jacobi and the served push return the vector the one-column
// cold Jacobi sweep of Algorithm 1 returns, to L1 ≤ 1e-9 — raw scores,
// not normalized ones. The corpus folds the degenerate and dangling-heavy graphs every solver
// path has to be right on, crossed with batch widths 1–3 (the scalar,
// two-column, and generic sweep kernels) and cold starts against warm
// starts from below and from above the fixpoint.
func TestAllAlgorithmsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	corpus := []struct {
		name string
		g    *graph.Graph
	}{
		{"random-900", testutil.RandomGraph(rng, 900, 6)},
		{"dangling-heavy-700", danglingHeavyGraph(rng, 700)},
		{"single-dangling-node", graph.FromEdges(1, nil)},
		{"mostly-dangling", graph.FromEdges(3, [][2]graph.NodeID{{0, 1}})},
		{"two-cycle", graph.FromEdges(2, [][2]graph.NodeID{{0, 1}, {1, 0}})},
		{"random-small", testutil.RandomGraph(rng, 2+rng.Intn(80), 4)},
	}
	for _, tc := range corpus {
		g, n := tc.g, tc.g.NumNodes()
		vs := []Vector{UniformJump(n), UniformJump(n).Scale(0.9), UniformJump(n).Scale(0.5)}
		if n > 10 {
			vs[1] = ScaledCoreJump(n, []graph.NodeID{1, 3, 7}, 0.9)
			vs[2] = ScaledCoreJump(n, []graph.NodeID{2}, 0.5)
		}
		eng, err := NewEngine(g, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]Vector, len(vs))
		for j, v := range vs {
			res, err := eng.Solve(v) // Jacobi, cold, one vector at a time
			if err != nil {
				t.Fatalf("%s: reference vector %d: %v", tc.name, j, err)
			}
			ref[j] = res.Scores
		}
		for _, algo := range []Algorithm{AlgoJacobi, AlgoGaussSouthwell} {
			for k := 1; k <= len(vs); k++ {
				// Per-column seeds, the delta-refresh shape: 0 is a cold
				// start, 0.5 a wrong guess from below the fixpoint, 1.5
				// one from above. The above seed is lifted by half the
				// uniform column's solution so that hosts a core column
				// never reaches (true score 0) start positive too: pushes
				// then carry negative residual down to exactly 0, where
				// a rounding overshoot would leave a negative score.
				for _, warm := range []float64{0, 0.5, 1.5} {
					cfg := DefaultConfig()
					cfg.Algorithm = algo
					if warm != 0 {
						for _, p := range ref[:k] {
							seed := p.Clone().Scale(warm)
							if warm > 1 {
								for i := range seed {
									seed[i] += 0.5 * ref[0][i]
								}
							}
							cfg.WarmStarts = append(cfg.WarmStarts, seed)
						}
					}
					got, err := eng.SolveManyConfig(vs[:k], cfg)
					if err != nil {
						t.Fatalf("%s %v k=%d warm=%v: %v", tc.name, algo, k, warm, err)
					}
					for j := range got {
						if d := l1Diff(ref[j], got[j].Scores); d > 1e-9 {
							t.Errorf("%s %v k=%d warm=%v vector %d: L1 diff %v from Jacobi", tc.name, algo, k, warm, j, d)
						}
					}
				}
			}
		}
		eng.Close()
	}
}

// TestEdgesSweptFullSweeps pins the telemetry invariant: a Jacobi
// sweep traverses all m in-edges per iteration, so a solve forced
// through a fixed number of iterations reports EdgesSwept =
// Iterations · m.
func TestEdgesSweptFullSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	g := danglingHeavyGraph(rng, 600)
	v := UniformJump(g.NumNodes())
	const iters = 7
	want := int64(iters) * g.NumEdges()
	res, err := Jacobi(g, v, Config{
		Damping:        0.85,
		Epsilon:        1e-300, // unreachable: force exactly MaxIter sweeps
		MaxIter:        iters,
		AllowTruncated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EdgesSwept != want {
		t.Errorf("EdgesSwept = %d, want %d", res.Stats.EdgesSwept, want)
	}
	if res.Stats.Iterations != iters {
		t.Errorf("Iterations = %d, want %d", res.Stats.Iterations, iters)
	}
}

// TestLinearity verifies the key property of Section 2.2: PageRank is
// linear in the random jump vector, PR(v₁+v₂) = PR(v₁) + PR(v₂).
func TestLinearity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 2+rng.Intn(40), 4)
		n := g.NumNodes()
		v1 := make(Vector, n)
		v2 := make(Vector, n)
		for i := 0; i < n; i++ {
			v1[i] = rng.Float64() / (2 * float64(n))
			v2[i] = rng.Float64() / (2 * float64(n))
		}
		p1 := jacobiScores(t, g, v1)
		p2 := jacobiScores(t, g, v2)
		p12 := jacobiScores(t, g, v1.Clone().Add(v2))
		return testutil.MaxAbsDiff(p1.Clone().Add(p2), p12) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestNormBound verifies ‖p‖ ≤ ‖v‖ (Section 3.5), with strict
// inequality when dangling nodes lose random-walk mass.
func TestNormBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := testutil.RandomGraph(rng, 2+rng.Intn(60), 3)
		v := UniformJump(g.NumNodes())
		p := jacobiScores(t, g, v)
		if p.Norm1() > v.Norm1()+1e-9 {
			t.Fatalf("trial %d: ‖p‖ = %v exceeds ‖v‖ = %v", trial, p.Norm1(), v.Norm1())
		}
		hasDangling := false
		for x := 0; x < g.NumNodes(); x++ {
			if g.IsDangling(graph.NodeID(x)) {
				hasDangling = true
				break
			}
		}
		if hasDangling && p.Norm1() >= v.Norm1()-1e-12 {
			t.Errorf("trial %d: dangling graph but ‖p‖ = ‖v‖", trial)
		}
	}
}

// TestNoInlinkScore verifies the paper's scaling convention: under the
// uniform jump, a node with no inlinks has scaled score exactly 1.
func TestNoInlinkScore(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {1, 2}})
	s := scaled(jacobiScores(t, g, UniformJump(4)))
	for _, x := range []graph.NodeID{0, 3} {
		if !testutil.AlmostEqual(s[x], 1, 1e-9) {
			t.Errorf("scaled score of inlink-free node %d = %v, want 1", x, s[x])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.FromEdges(2, [][2]graph.NodeID{{0, 1}})
	v := UniformJump(2)
	if _, err := Jacobi(g, v, Config{Damping: 1.5}); err == nil {
		t.Error("damping 1.5 accepted")
	}
	if _, err := Jacobi(g, v, Config{Damping: -0.1}); err == nil {
		t.Error("negative damping accepted")
	}
	if _, err := Jacobi(g, v, Config{Epsilon: -1}); err == nil {
		t.Error("negative epsilon accepted")
	}
	// NaN compares false to everything, so a range test written with
	// <= and >= lets it through; ±Inf must fail the finiteness checks.
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, alg := range []Algorithm{AlgoJacobi, AlgoGaussSouthwell} {
			if _, err := NewEngine(g, Config{Damping: x, Algorithm: alg}); err == nil {
				t.Errorf("%v: damping %v accepted", alg, x)
			}
			if _, err := NewEngine(g, Config{Epsilon: x, Algorithm: alg}); err == nil {
				t.Errorf("%v: epsilon %v accepted", alg, x)
			}
		}
		eng, err := NewEngine(g, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.SolveConfig(v, Config{Damping: x}); err == nil {
			t.Errorf("per-call damping %v accepted", x)
		}
		if _, err := eng.SolveConfig(v, Config{Epsilon: x}); err == nil {
			t.Errorf("per-call epsilon %v accepted", x)
		}
		eng.Close()
	}
	if _, err := Jacobi(g, Vector{1}, DefaultConfig()); err == nil {
		t.Error("wrong-length jump vector accepted")
	}
}

func TestMaxIterCap(t *testing.T) {
	// An asymmetric cyclic graph (the uniform vector is NOT its
	// fixpoint) with an absurdly tight epsilon and 3 iterations must
	// report non-convergence: as a typed error by default, and as a
	// truncated Result under AllowTruncated.
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 0}, {2, 0}})
	cfg := Config{Damping: 0.85, Epsilon: 1e-300, MaxIter: 3}

	res, err := Jacobi(g, UniformJump(3), cfg)
	if !IsNotConverged(err) {
		t.Fatalf("err = %v, want *ErrNotConverged", err)
	}
	var nc *ErrNotConverged
	errors.As(err, &nc)
	if nc.Iterations != 3 || nc.Residual <= 0 {
		t.Errorf("ErrNotConverged carries iterations=%d residual=%v", nc.Iterations, nc.Residual)
	}
	if res == nil || res.Converged {
		t.Fatalf("truncated result should still be returned for diagnostics, got %+v", res)
	}

	cfg.AllowTruncated = true
	res, err = Jacobi(g, UniformJump(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("reported convergence under an unreachable epsilon")
	}
	if res.Iterations != 3 {
		t.Errorf("Iterations = %d, want exactly the 3 executed sweeps", res.Iterations)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testutil.RandomGraph(rng, 5000, 6)
	v := UniformJump(g.NumNodes())
	seq, err := Jacobi(g, v, Config{Damping: 0.85, Epsilon: 1e-12, MaxIter: 500, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Jacobi(g, v, Config{Damping: 0.85, Epsilon: 1e-12, MaxIter: 500, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d := testutil.MaxAbsDiff(seq.Scores, par.Scores); d > 1e-12 {
		t.Errorf("parallel and sequential Jacobi differ by %v", d)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	res, err := Jacobi(g, UniformJump(0), DefaultConfig())
	if err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	if len(res.Scores) != 0 {
		t.Errorf("empty graph produced %d scores", len(res.Scores))
	}
}

// jacobiScores returns the Jacobi fixpoint of jump v under the
// default configuration, failing the test on any solver error.
func jacobiScores(t testing.TB, g *graph.Graph, v Vector) Vector {
	t.Helper()
	res, err := Jacobi(g, v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res.Scores
}
