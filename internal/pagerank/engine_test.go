package pagerank

import (
	"math/rand"
	"sync"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/testutil"
)

// danglingHeavyGraph builds a random graph where roughly a third of the
// nodes have no out-links, so a third of the walks end without a
// jump: the linear system's scores sum well below ‖v‖.
func danglingHeavyGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for x := 0; x < n; x++ {
		if x%3 == 0 {
			continue // dangling
		}
		deg := 1 + rng.Intn(5)
		for i := 0; i < deg; i++ {
			y := graph.NodeID(rng.Intn(n))
			b.AddEdge(graph.NodeID(x), y)
		}
	}
	return b.Build()
}

func TestEngineMatchesFreeFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := testutil.RandomGraph(rng, 600, 5)
	v := UniformJump(g.NumNodes())
	eng, err := NewEngine(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, algo := range []Algorithm{AlgoJacobi, AlgoGaussSouthwell} {
		cfg := DefaultConfig()
		cfg.Algorithm = algo
		want, err := solveOnce(g, v, cfg)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		got, err := eng.SolveConfig(v, cfg)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if d := testutil.MaxAbsDiff(want.Scores, got.Scores); d > 1e-12 {
			t.Errorf("%v: engine and free function differ by %v", algo, d)
		}
		if got.Stats == nil || got.Stats.Iterations == 0 || got.Stats.EdgesSwept == 0 {
			t.Errorf("%v: missing solve stats: %+v", algo, got.Stats)
		}
	}
}

func TestEngineNotConvergedError(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 0}, {2, 0}})
	eng, err := NewEngine(g, Config{Damping: 0.85, Epsilon: 1e-300, MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Solve(UniformJump(3))
	if !IsNotConverged(err) {
		t.Fatalf("err = %v, want *ErrNotConverged", err)
	}
	if res == nil || res.Converged {
		t.Fatalf("want truncated result alongside the error, got %+v", res)
	}
	// The same solve with AllowTruncated is accepted.
	cfg := eng.Config()
	cfg.AllowTruncated = true
	if _, err := eng.SolveConfig(UniformJump(3), cfg); err != nil {
		t.Fatalf("AllowTruncated solve: %v", err)
	}
}

// TestWarmStartFixpointEquivalence checks that a warm-started solve
// reaches the same fixpoint as a cold one, in no more iterations.
func TestWarmStartFixpointEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := testutil.RandomGraph(rng, 800, 6)
	n := g.NumNodes()
	eng, err := NewEngine(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	core := []graph.NodeID{1, 5, 9, 40, 77}
	w := ScaledCoreJump(n, core, 0.85)
	cold, err := eng.Solve(w)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-start a slightly perturbed system from the cold solution.
	w2 := ScaledCoreJump(n, append([]graph.NodeID{300}, core...), 0.85)
	cold2, err := eng.Solve(w2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := eng.Config()
	cfg.WarmStarts = []Vector{cold.Scores}
	warm2, err := eng.SolveConfig(w2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := testutil.MaxAbsDiff(cold2.Scores, warm2.Scores); d > 1e-10 {
		t.Errorf("warm and cold solves disagree by %v", d)
	}
	if warm2.Iterations > cold2.Iterations {
		t.Errorf("warm start took %d iterations, cold %d", warm2.Iterations, cold2.Iterations)
	}
}

// TestSolveManyMatchesSequential checks the batched sweep against
// one-at-a-time solves for both algorithms.
func TestSolveManyMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := danglingHeavyGraph(rng, 700)
	n := g.NumNodes()
	core := []graph.NodeID{2, 17, 101, 333}
	vs := []Vector{
		UniformJump(n),
		ScaledCoreJump(n, core, 0.85),
		ScaledCoreJump(n, core[:2], 0.4),
	}
	for _, algo := range []Algorithm{AlgoJacobi, AlgoGaussSouthwell} {
		cfg := DefaultConfig()
		cfg.Algorithm = algo
		eng, err := NewEngine(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := eng.SolveMany(vs)
		if err != nil {
			t.Fatalf("%v: SolveMany: %v", algo, err)
		}
		if len(batch) != len(vs) {
			t.Fatalf("%v: got %d results for %d vectors", algo, len(batch), len(vs))
		}
		for j, v := range vs {
			single, err := eng.Solve(v)
			if err != nil {
				t.Fatalf("%v: vector %d: %v", algo, j, err)
			}
			// The batch keeps iterating until the slowest vector
			// converges, so batched results are at least as converged
			// as sequential ones: agreement within a few epsilon.
			if d := testutil.MaxAbsDiff(single.Scores, batch[j].Scores); d > 1e-11 {
				t.Errorf("%v: vector %d: batched and sequential differ by %v", algo, j, d)
			}
			if !batch[j].Converged {
				t.Errorf("%v: vector %d not converged in batch", algo, j)
			}
		}
		if batch[0].Stats != batch[1].Stats {
			t.Errorf("%v: batch results should share one SolveStats", algo)
		}
		if batch[0].Stats.Batch != len(vs) {
			t.Errorf("%v: Stats.Batch = %d, want %d", algo, batch[0].Stats.Batch, len(vs))
		}
		eng.Close()
	}
}

// TestWarmStart: resolving after a tiny jump-vector change from the
// previous solution must converge in far fewer iterations.
func TestWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := testutil.RandomGraph(rng, 5000, 6)
	n := g.NumNodes()
	v := UniformJump(n)
	cold, err := Jacobi(g, v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the jump slightly (the shape of a core fix).
	v2 := v.Clone()
	for i := 0; i < 10; i++ {
		v2[i*3] *= 1.5
	}
	coldRes, err := Jacobi(g, v2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := DefaultConfig()
	warmCfg.WarmStarts = []Vector{cold.Scores}
	warmRes, err := Jacobi(g, v2, warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := testutil.MaxAbsDiff(coldRes.Scores, warmRes.Scores); d > 1e-9 {
		t.Fatalf("warm and cold solutions differ by %v", d)
	}
	if warmRes.Iterations >= coldRes.Iterations {
		t.Errorf("warm start took %d iterations vs cold %d; expected a speedup", warmRes.Iterations, coldRes.Iterations)
	}
	// Validation: wrong-length warm start must error.
	badCfg := DefaultConfig()
	badCfg.WarmStarts = []Vector{{1}}
	if _, err := Jacobi(g, v2, badCfg); err == nil {
		t.Error("wrong-length warm start accepted")
	}
}

// TestEngineParallelMatchesSequential exercises the worker pool on a
// graph above the parallel threshold (also the -race regression test
// for the pool).
func TestEngineParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testutil.RandomGraph(rng, 6000, 6)
	v := UniformJump(g.NumNodes())
	seq, err := Jacobi(g, v, Config{Damping: 0.85, Epsilon: 1e-12, MaxIter: 500, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, Config{Damping: 0.85, Epsilon: 1e-12, MaxIter: 500, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for round := 0; round < 3; round++ { // pool reuse across solves
		par, err := eng.Solve(v)
		if err != nil {
			t.Fatal(err)
		}
		if d := testutil.MaxAbsDiff(seq.Scores, par.Scores); d > 1e-12 {
			t.Errorf("round %d: parallel and sequential Jacobi differ by %v", round, d)
		}
	}
	batch, err := eng.SolveMany([]Vector{v, v.Clone().Scale(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if d := testutil.MaxAbsDiff(seq.Scores, batch[0].Scores); d > 1e-12 {
		t.Errorf("parallel batched Jacobi differs by %v", d)
	}

	// The (p, p′) shape of a mass estimation: two columns on a
	// dangling-heavy graph, chunked parallel sweep vs sequential.
	dg := danglingHeavyGraph(rng, 6000)
	dn := dg.NumNodes()
	pair := []Vector{UniformJump(dn), ScaledCoreJump(dn, []graph.NodeID{1, 3, 7}, 0.9)}
	var got [2][]*Result
	for i, workers := range []int{1, 8} {
		deng, err := NewEngine(dg, Config{Damping: 0.85, Epsilon: 1e-12, MaxIter: 500, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got[i], err = deng.SolveMany(pair)
		deng.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	for j := range pair {
		if d := l1Diff(got[0][j].Scores, got[1][j].Scores); d > 1e-9 {
			t.Errorf("dangling-heavy k=2 vector %d: parallel sweep differs from sequential by L1 %v", j, d)
		}
	}
	if w := got[1][0].Stats.Workers; w < 2 {
		t.Errorf("dangling-heavy k=2 solve ran on %d worker(s); the parallel path was not exercised", w)
	}
}

// TestEngineConcurrentSolves hammers one engine from several
// goroutines; solves serialize internally (run with -race).
func TestEngineConcurrentSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := testutil.RandomGraph(rng, 5000, 4)
	v := UniformJump(g.NumNodes())
	eng, err := NewEngine(g, Config{Damping: 0.85, Epsilon: 1e-10, MaxIter: 300, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	want, err := eng.Solve(v)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Solve(v)
			if err != nil {
				t.Error(err)
				return
			}
			if d := testutil.MaxAbsDiff(want.Scores, res.Scores); d > 1e-12 {
				t.Errorf("concurrent solve differs by %v", d)
			}
		}()
	}
	wg.Wait()
}

func TestEngineClosedRejectsSolves(t *testing.T) {
	g := graph.FromEdges(2, [][2]graph.NodeID{{0, 1}})
	eng, err := NewEngine(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close() // idempotent
	if _, err := eng.Solve(UniformJump(2)); err == nil {
		t.Error("closed engine accepted a solve")
	}
}

func TestEngineEmptyBatch(t *testing.T) {
	g := graph.FromEdges(2, [][2]graph.NodeID{{0, 1}})
	eng, err := NewEngine(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rs, err := eng.SolveMany(nil)
	if err != nil || rs != nil {
		t.Errorf("empty batch: got (%v, %v), want (nil, nil)", rs, err)
	}
}

// TestTraceCallback: the obs context's log callback receives one line
// per iteration, each the text of that iteration's span event, and the
// last residual logged is the one that met Epsilon.
func TestTraceCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := testutil.RandomGraph(rng, 300, 4)
	cfg := DefaultConfig()
	o := solveObserved(t, g, cfg, []Vector{UniformJump(g.NumNodes())})
	if o.err != nil {
		t.Fatal(o.err)
	}
	st := o.res[0].Stats
	if len(o.logged) != st.Iterations {
		t.Fatalf("log callback saw %d lines for %d iterations", len(o.logged), st.Iterations)
	}
	checkEvents(t, "jacobi", o)
	if last := st.Residuals[len(st.Residuals)-1]; last >= cfg.Epsilon {
		t.Errorf("final logged residual %v not below epsilon", last)
	}
}
