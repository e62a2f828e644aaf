package pagerank

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spammass/internal/graph"
	"spammass/internal/paperfig"
	"spammass/internal/testutil"
)

// TestTheorem1 verifies that the PageRank of every node equals the sum
// of the contributions of all nodes: p = Σ_x qˣ.
func TestTheorem1(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 2+rng.Intn(25), 4)
		n := g.NumNodes()
		v := UniformJump(n)
		p := jacobiScores(t, g, v)
		sum := make(Vector, n)
		for x := 0; x < n; x++ {
			qx, err := NodeContribution(g, graph.NodeID(x), v, DefaultConfig())
			if err != nil {
				return false
			}
			sum.Add(qx)
		}
		return testutil.MaxAbsDiff(p, sum) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestTheorem2WalkOracle verifies Theorem 2 against the literal walk
// enumeration of Section 3.2: qˣ = PR(vˣ) matches the walk sums.
func TestTheorem2WalkOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		g := testutil.RandomGraph(rng, 2+rng.Intn(7), 2)
		n := g.NumNodes()
		v := UniformJump(n)
		for x := 0; x < n; x++ {
			qx, err := NodeContribution(g, graph.NodeID(x), v, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			oracle, bound := walkContribution(g, graph.NodeID(x), v, c, 1e-10)
			if d := testutil.MaxAbsDiff(qx, oracle); d > bound+1e-9 {
				t.Errorf("trial %d node %d: linear vs walk oracle differ by %v (truncation bound %v)", trial, x, d, bound)
			}
		}
	}
}

// TestWalkOracleExactOnDAG uses acyclic graphs, where walk enumeration
// is exact (finitely many walks), for a tighter comparison.
func TestWalkOracleExactOnDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		g := testutil.RandomDAG(rng, 3+rng.Intn(10), 3)
		n := g.NumNodes()
		v := UniformJump(n)
		p := jacobiScores(t, g, v)
		oracle, _ := walkPageRank(g, v, c, 0) // tol 0: enumerate all (finite) walks
		if d := testutil.MaxAbsDiff(p, oracle); d > 1e-10 {
			t.Errorf("trial %d: PageRank vs exact walk sum differ by %v", trial, d)
		}
	}
}

// TestSelfContributionNoCircuit checks that a node not on any circuit
// contributes exactly (1−c)·v_x to itself (the virtual circuit Z_x).
func TestSelfContributionNoCircuit(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}}) // acyclic chain
	v := UniformJump(3)
	for x := 0; x < 3; x++ {
		qx, err := NodeContribution(g, graph.NodeID(x), v, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		want := (1 - c) * v[x]
		if !testutil.AlmostEqual(qx[x], want, 1e-12) {
			t.Errorf("q_%d^%d = %v, want (1−c)v = %v", x, x, qx[x], want)
		}
	}
}

// TestSelfContributionWithCircuit checks that circuits add to the
// self-contribution: on a 2-cycle, q_0^0 = (1−c)v₀·(1+c²+c⁴+…) =
// (1−c)v₀/(1−c²).
func TestSelfContributionWithCircuit(t *testing.T) {
	g := graph.FromEdges(2, [][2]graph.NodeID{{0, 1}, {1, 0}})
	v := UniformJump(2)
	qx, err := NodeContribution(g, 0, v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := (1 - c) * v[0] / (1 - c*c)
	if !testutil.AlmostEqual(qx[0], want, 1e-12) {
		t.Errorf("q_0^0 = %v, want %v", qx[0], want)
	}
}

// TestSetContributionLinearity verifies q^U = Σ_{x∈U} qˣ.
func TestSetContributionLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testutil.RandomGraph(rng, 20, 3)
	v := UniformJump(20)
	set := []graph.NodeID{1, 4, 9, 16}
	qU, err := Contribution(g, set, v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum := make(Vector, 20)
	for _, x := range set {
		qx, err := NodeContribution(g, x, v, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sum.Add(qx)
	}
	if d := testutil.MaxAbsDiff(qU, sum); d > 1e-10 {
		t.Errorf("q^U vs Σqˣ differ by %v", d)
	}
}

// TestUnconnectedContributionZero: if there is no walk from x to y the
// contribution is zero.
func TestUnconnectedContributionZero(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {2, 3}})
	v := UniformJump(4)
	q0, err := NodeContribution(g, 0, v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range []graph.NodeID{2, 3} {
		if q0[y] != 0 {
			t.Errorf("q_%d^0 = %v, want 0 for unconnected node", y, q0[y])
		}
	}
}

// TestFigure2Contributions checks the worked contributions of
// Section 3.3: q_x^{g0..g3} = (2c+2c²) and q_x^{s0..s6} = (c+6c²),
// in scaled units.
func TestFigure2Contributions(t *testing.T) {
	f := paperfig.NewFigure2()
	v := UniformJump(12)
	qGood, err := Contribution(f.Graph, f.GoodNodes(), v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	qSpam, err := Contribution(f.Graph, f.S[:], v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sGood := qGood.Scaled(c)
	sSpam := qSpam.Scaled(c)
	if want := 2*c + 2*c*c; !testutil.AlmostEqual(sGood[f.X], want, 1e-9) {
		t.Errorf("scaled q_x^good = %v, want %v", sGood[f.X], want)
	}
	if want := c + 6*c*c; !testutil.AlmostEqual(sSpam[f.X], want, 1e-9) {
		t.Errorf("scaled q_x^spam = %v, want %v", sSpam[f.X], want)
	}
	// Section 3.3: for c = 0.85, q_x^spam = 1.65·q_x^good.
	if ratio := sSpam[f.X] / sGood[f.X]; !testutil.AlmostEqual(ratio, 1.65, 0.005) {
		t.Errorf("spam/good contribution ratio = %v, paper prints 1.65", ratio)
	}
}

// TestLinkContribution checks the per-link contributions quoted for
// Figure 1: the links from g0 and g1 contribute c(1−c)/n each, and the
// link from s0 contributes (c+kc²)(1−c)/n.
func TestLinkContribution(t *testing.T) {
	const k = 5
	f := paperfig.NewFigure1(k)
	n := f.Graph.NumNodes()
	v := UniformJump(n)
	scale := float64(n) / (1 - c)

	got, err := LinkContribution(f.Graph, f.G0, f.X, v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := c; !testutil.AlmostEqual(got*scale, want, 1e-8) {
		t.Errorf("scaled contribution of (g0,x) = %v, want %v", got*scale, want)
	}
	got, err = LinkContribution(f.Graph, f.S0, f.X, v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := c + k*c*c; !testutil.AlmostEqual(got*scale, want, 1e-8) {
		t.Errorf("scaled contribution of (s0,x) = %v, want %v", got*scale, want)
	}
	if _, err := LinkContribution(f.Graph, f.X, f.G0, v, DefaultConfig()); err == nil {
		t.Error("LinkContribution accepted a nonexistent edge")
	}
}

// walkContribution computes the contribution vector qˣ of node x by
// explicitly enumerating walks, following the definition in Section 3.2
// verbatim: q_y^W = c^|W|·π(W)·(1−c)·v_x for each walk W from x to y,
// plus the virtual zero-length circuit Z_x contributing (1−c)·v_x to x
// itself.
//
// Walk prefixes whose per-step weight falls below tol are pruned. The
// second return value is a rigorous upper bound on the total mass lost
// to pruning: a subtree entered with weight s contributes at most
// s/(1−c) in total (the level sums decay geometrically with ratio c),
// so each pruned family of branches loses at most deg·step/(1−c).
//
// This is exponential in the worst case and exists purely as a test
// oracle for Theorem 2 on small graphs. tol must be positive for
// cyclic graphs; on DAGs tol = 0 enumerates every walk exactly.
func walkContribution(g *graph.Graph, x graph.NodeID, v Vector, c, tol float64) (q Vector, errBound float64) {
	q = make(Vector, g.NumNodes())
	base := (1 - c) * v[x]
	if base == 0 {
		return q, 0
	}
	// Virtual circuit Z_x of length zero and weight 1.
	q[x] += base

	// Depth-first enumeration of walks; "weight" carries
	// c^k·π(W)·(1−c)·v_x for the walk so far.
	var dfs func(node graph.NodeID, weight float64)
	dfs = func(node graph.NodeID, weight float64) {
		out := g.OutNeighbors(node)
		if len(out) == 0 {
			return
		}
		step := weight * c / float64(len(out))
		if step < tol {
			errBound += float64(len(out)) * step / (1 - c)
			return
		}
		for _, y := range out {
			q[y] += step
			dfs(y, step)
		}
	}
	dfs(x, base)
	return q, errBound
}

// walkPageRank computes the full PageRank vector via Theorem 1 by
// summing the walk-enumerated contributions of every node, returning
// the accumulated truncation bound. Like walkContribution, it is a
// small-graph test oracle.
func walkPageRank(g *graph.Graph, v Vector, c, tol float64) (p Vector, errBound float64) {
	p = make(Vector, g.NumNodes())
	for x := 0; x < g.NumNodes(); x++ {
		qx, e := walkContribution(g, graph.NodeID(x), v, c, tol)
		p.Add(qx)
		errBound += e
	}
	return p, errBound
}
