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

// systemResidual recomputes, independently of the solver, the residual
// r_y = c·Σ_{z∈in(y)} x_z/out(z) + (1−c)v_y − x_y of every host y. It
// returns ‖r‖₁; slack, the rounding error that recomputation may make
// (each of a row's in-degree + 3 operations may err by one unit
// roundoff of the row's terms); and the dangling hosts whose |r_y|
// exceeds their own row's share of slack.
func systemResidual(g *graph.Graph, c float64, x, v Vector) (total, slack float64, dangling []int) {
	const u = 0x1p-53
	for y := range x {
		sum := 0.0
		in := g.InNeighbors(graph.NodeID(y))
		for _, z := range in {
			sum += x[z] / float64(g.OutDegree(z))
		}
		r := math.Abs(c*sum + (1-c)*v[y] - x[y])
		row := float64(len(in)+3) * u * (c*sum + (1-c)*v[y] + x[y])
		total += r
		slack += row
		if g.IsDangling(graph.NodeID(y)) && r > row {
			dangling = append(dangling, y)
		}
	}
	return total, slack, dangling
}

// TestDanglingSplitExact holds the push, which solves over the hosts
// with out-links and then sets each dangling host in one pass, to the
// whole system. For cold and warm solves at one and two workers, an
// independent pull over all n hosts recomputes the residual of each
// returned x: it must be ≤ ε and agree with Result.Residual up to the
// recomputation's rounding bound, and every dangling row's residual
// must be 0 up to its own.
// A warm start's dangling entries are recomputed exactly, so a start
// whose dangling entries are 10× their fixpoint must return the same
// bits as one holding the fixpoint there. The graphs are an edgeless
// one (no block at all), one without dangling hosts (the block is the
// whole graph) and a dangling-heavy one, with a core of hosts with
// out-links and a core made only of dangling hosts, whose p′ puts no
// jump on the block.
func TestDanglingSplitExact(t *testing.T) {
	const n, c, eps = 6000, 0.85, 1e-12
	rng := rand.New(rand.NewSource(58))
	b := graph.NewBuilder(n)
	for x := 0; x < n; x++ {
		b.AddEdge(graph.NodeID(x), graph.NodeID((x+1)%n))
		for i := rng.Intn(4); i > 0; i-- {
			b.AddEdge(graph.NodeID(x), graph.NodeID(rng.Intn(n)))
		}
	}
	noDangling := b.Build()
	heavy := danglingHeavyGraph(rng, n) // every x with x%3 == 0 is dangling
	var danglingCore []graph.NodeID
	for x := 0; x < 150; x += 3 {
		danglingCore = append(danglingCore, graph.NodeID(x))
	}
	cases := []struct {
		name string
		g    *graph.Graph
		core []graph.NodeID
	}{
		{"edgeless", graph.NewBuilder(n).Build(), []graph.NodeID{1, 5, 9}},
		{"no dangling host", noDangling, []graph.NodeID{1, 5, 9}},
		{"linked core", heavy, []graph.NodeID{1, 4, 7, 11}},
		{"dangling core", heavy, danglingCore},
	}
	for _, tc := range cases {
		g := tc.g
		vs := []Vector{UniformJump(n), ScaledCoreJump(n, tc.core, 0.85)}
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s at %d workers", tc.name, workers)
			solve := func(warm []Vector) []*Result {
				t.Helper()
				e, err := NewEngine(g, Config{Damping: c, Epsilon: eps, MaxIter: 1000, Workers: workers, Algorithm: AlgoGaussSouthwell, WarmStarts: warm})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				rs, err := e.SolveMany(vs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return rs
			}
			check := func(start string, rs []*Result) {
				t.Helper()
				for j, r := range rs {
					total, slack, dangling := systemResidual(g, c, r.Scores, vs[j])
					if total > eps+slack || math.Abs(total-r.Residual) > slack {
						t.Errorf("%s, %s column %d: recomputed residual %.6g ± %.3g, reported %.6g, ε %g", name, start, j, total, slack, r.Residual, eps)
					}
					if len(dangling) > 0 {
						t.Errorf("%s, %s column %d: %d dangling rows hold more than rounding, the first host %d", name, start, j, len(dangling), dangling[0])
					}
				}
			}
			cold := solve(nil)
			check("cold", cold)

			// Hosts with out-links start at the other column's fixpoint
			// scaled by 5/4; dangling hosts at their own fixpoint, or 10×.
			right := make([]Vector, 2)
			wrong := make([]Vector, 2)
			for j := range right {
				right[j], wrong[j] = make(Vector, n), make(Vector, n)
				for x := 0; x < n; x++ {
					if g.IsDangling(graph.NodeID(x)) {
						right[j][x], wrong[j][x] = cold[j].Scores[x], 10*cold[j].Scores[x]
					} else {
						right[j][x] = 1.25 * cold[1-j].Scores[x]
						wrong[j][x] = right[j][x]
					}
				}
			}
			warm := solve(right)
			check("warm", warm)
			off := solve(wrong)
			if warm[0].Stats.EdgesSwept != off[0].Stats.EdgesSwept || warm[0].Stats.Pushes != off[0].Stats.Pushes {
				t.Errorf("%s: 10× dangling warm entries swept %d edges in %d pushes, the fixpoint's %d in %d",
					name, off[0].Stats.EdgesSwept, off[0].Stats.Pushes, warm[0].Stats.EdgesSwept, warm[0].Stats.Pushes)
			}
			for j := range warm {
				if floatDigest(warm[j].Scores) != floatDigest(off[j].Scores) || math.Float64bits(warm[j].Residual) != math.Float64bits(off[j].Residual) {
					t.Errorf("%s: column %d from 10× dangling warm entries differs from the fixpoint's", name, j)
				}
			}
		}
	}
}
