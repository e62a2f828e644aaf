package pagerank

import (
	"fmt"
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
		ref, err := Jacobi(g, vs[0], jcfg)
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
		ref1, err := Jacobi(g, vs[1], jcfg)
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
		wcfg.WarmStarts = []Vector{got[0].Scores}
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

// TestSouthwellConcurrentColumns runs the column-parallel push path on
// a graph above parallelThreshold (the -race regression test for it):
// k = 2 and k = 3 batches on two workers must return bit-identical
// vectors and the same work as one worker, report the columns actually
// pushed at once, and write the residual record, span and log (none of
// them safe for concurrent use here) from column 0 alone: one event
// per column-0 scan.
func TestSouthwellConcurrentColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	g := danglingHeavyGraph(rng, 6000)
	n := g.NumNodes()
	vs := []Vector{
		UniformJump(n),
		ScaledCoreJump(n, []graph.NodeID{1, 3, 7}, 0.9),
		ScaledCoreJump(n, []graph.NodeID{2}, 0.5),
	}
	solve := func(workers, k int) observedSolve {
		cfg := Config{Damping: 0.85, Epsilon: 1e-12, MaxIter: 1000, Workers: workers, Algorithm: AlgoGaussSouthwell}
		o := solveObserved(t, g, cfg, vs[:k])
		if o.err != nil {
			t.Fatalf("workers=%d k=%d: %v", workers, k, o.err)
		}
		return o
	}
	for _, k := range []int{2, 3} {
		seq, par := solve(1, k), solve(2, k)
		for j := 0; j < k; j++ {
			a, b := seq.res[j].Scores, par.res[j].Scores
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("k=%d column %d node %d: concurrent %v, sequential %v", k, j, i, b[i], a[i])
				}
			}
			if seq.res[j].Iterations != par.res[j].Iterations {
				t.Errorf("k=%d column %d: %d scans concurrent, %d sequential", k, j, par.res[j].Iterations, seq.res[j].Iterations)
			}
		}
		ss, ps := seq.res[0].Stats, par.res[0].Stats
		if ss.EdgesSwept != ps.EdgesSwept {
			t.Errorf("k=%d: EdgesSwept %d concurrent, %d sequential", k, ps.EdgesSwept, ss.EdgesSwept)
		}
		if ss.Workers != 1 || ps.Workers != 2 {
			t.Errorf("k=%d: Workers = %d sequential, %d concurrent; want 1 and 2", k, ss.Workers, ps.Workers)
		}
		// Per-scan telemetry is column 0's trajectory on either path.
		scans := seq.res[0].Iterations
		if len(ss.Residuals) != scans || len(ps.Residuals) != scans {
			t.Errorf("k=%d: %d/%d residuals (sequential/concurrent), want column 0's %d scans", k, len(ss.Residuals), len(ps.Residuals), scans)
		}
		for i := range ps.Residuals {
			if math.Float64bits(ss.Residuals[i]) != math.Float64bits(ps.Residuals[i]) {
				t.Errorf("k=%d: scan %d residual %v concurrent, %v sequential", k, i+1, ps.Residuals[i], ss.Residuals[i])
				break
			}
		}
		checkEvents(t, fmt.Sprintf("k=%d sequential", k), seq)
		checkEvents(t, fmt.Sprintf("k=%d concurrent", k), par)
	}
}
