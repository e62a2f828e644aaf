package pagerank

import (
	"math"
	"math/rand"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/testutil"
)

// l1Diff is the L1 distance ‖a − b‖₁, the metric the solver-parity
// acceptance bound is stated in.
func l1Diff(a, b Vector) float64 {
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// TestGaussSouthwellMatchesJacobi checks the push solver against the
// sweep reference on cold starts, warm starts, and batches.
func TestGaussSouthwellMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 3; trial++ {
		var g *graph.Graph
		if trial == 1 {
			g = danglingHeavyGraph(rng, 500)
		} else {
			g = testutil.RandomGraph(rng, 400+rng.Intn(400), 5)
		}
		n := g.NumNodes()
		vs := []Vector{
			UniformJump(n),
			ScaledCoreJump(n, []graph.NodeID{1, 5, 9}, 0.8),
		}
		jcfg := DefaultConfig()
		ref, err := Solve(g, vs[0], jcfg)
		if err != nil {
			t.Fatal(err)
		}
		scfg := DefaultConfig()
		scfg.Algorithm = AlgoGaussSouthwell
		eng, err := NewEngine(g, scfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.SolveMany(vs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := l1Diff(ref.Scores, got[0].Scores); d > 1e-9 {
			t.Errorf("trial %d: Gauss-Southwell vs Jacobi L1 diff %v", trial, d)
		}
		ref1, err := Solve(g, vs[1], jcfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := l1Diff(ref1.Scores, got[1].Scores); d > 1e-9 {
			t.Errorf("trial %d: batch vector 1 L1 diff %v", trial, d)
		}
		st := got[0].Stats
		if st.Algorithm != AlgoGaussSouthwell {
			t.Errorf("trial %d: stats report %v", trial, st.Algorithm)
		}
		// Cold pushes start from r = (1−c)v directly — no initial sweep —
		// so EdgesSwept counts only out-neighbor lists actually pushed.
		if st.EdgesSwept == 0 {
			t.Errorf("trial %d: no edges recorded for %d pushes", trial, st.Iterations)
		}
		// A warm start from the exact solution must converge immediately:
		// one verification sweep of m edges and no pushes beyond noise.
		wcfg := scfg
		wcfg.WarmStart = got[0].Scores
		warm, err := eng.SolveConfig(vs[0], wcfg)
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		if d := l1Diff(ref.Scores, warm.Scores); d > 1e-9 {
			t.Errorf("trial %d: warm Gauss-Southwell L1 diff %v", trial, d)
		}
		if !warm.Converged {
			t.Errorf("trial %d: warm restart from the fixpoint did not converge", trial)
		}
		eng.Close()
	}
}
