package pagerank

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spammass/internal/graph"
	"spammass/internal/paperfig"
	"spammass/internal/testutil"
)

// TestContributionToTheorem1: the reverse contribution vector of x
// sums to p_x.
func TestContributionToTheorem1(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 2+rng.Intn(30), 4)
		n := g.NumNodes()
		v := UniformJump(n)
		p := jacobiScores(t, g, v)
		for trial := 0; trial < 3; trial++ {
			x := graph.NodeID(rng.Intn(n))
			q, err := ContributionTo(g, x, v, DefaultConfig())
			if err != nil {
				return false
			}
			if !testutil.AlmostEqual(q.Sum(), p[x], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestContributionToMatchesForward: q_x^y from the reverse solve must
// equal entry x of the forward contribution vector q^y = PR(v^y).
func TestContributionToMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testutil.RandomGraph(rng, 25, 3)
	v := UniformJump(25)
	x := graph.NodeID(7)
	reverse, err := ContributionTo(g, x, v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 25; y++ {
		forward, err := NodeContribution(g, graph.NodeID(y), v, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.AlmostEqual(reverse[y], forward[x], 1e-9) {
			t.Errorf("q_%d^%d: reverse %v vs forward %v", x, y, reverse[y], forward[x])
		}
	}
}

// TestContributionToFigure2: the supporters of x in the Figure 2 graph
// carry the closed-form contributions of Section 3.3.
func TestContributionToFigure2(t *testing.T) {
	const c = paperfig.Damping
	f := paperfig.NewFigure2()
	v := UniformJump(12)
	q, err := ContributionTo(f.Graph, f.X, v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	scale := 12 / (1 - c)
	cases := []struct {
		node graph.NodeID
		want float64
	}{
		{f.S[0], c},     // direct link, s0's own jump share: c
		{f.S[1], c * c}, // s1 → s0 → x
		{f.S[5], c * c}, // s5 → g0 → x
		{f.G[0], c},     // g0 → x
		{f.G[1], c * c}, // g1 → g0 → x
		{f.X, 1},        // x's virtual circuit
		{f.G[3], c * c}, // g3 → g2 → x
	}
	for _, tc := range cases {
		if got := q[tc.node] * scale; !testutil.AlmostEqual(got, tc.want, 1e-8) {
			t.Errorf("scaled q_x^%d = %v, want %v", tc.node, got, tc.want)
		}
	}
}

func TestTopSupporters(t *testing.T) {
	f := paperfig.NewFigure1(5)
	v := UniformJump(f.Graph.NumNodes())
	sup, px, err := TopSupporters(f.Graph, f.X, v, DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sup) != 3 {
		t.Fatalf("%d supporters, want 3", len(sup))
	}
	// g0, g1, and s0 each contribute exactly c (their own jump mass
	// over one link); the boosters c² each. The top three must be
	// exactly {g0, g1, s0}.
	top := map[graph.NodeID]bool{}
	for _, s := range sup {
		top[s.Node] = true
		const c = paperfig.Damping
		want := c * (1 - c) / float64(f.Graph.NumNodes())
		if !testutil.AlmostEqual(s.Contribution, want, 1e-10) {
			t.Errorf("supporter %d contributes %v, want %v", s.Node, s.Contribution, want)
		}
	}
	if !top[f.G0] || !top[f.G1] || !top[f.S0] {
		t.Errorf("top supporters %v, want {g0, g1, s0}", sup)
	}
	p := jacobiScores(t, f.Graph, v)
	if !testutil.AlmostEqual(px, p[f.X], 1e-10) {
		t.Errorf("reported p_x %v differs from PageRank %v", px, p[f.X])
	}
	total := 0.0
	for _, s := range sup {
		if s.Share < 0 || s.Share > 1 {
			t.Errorf("share %v outside [0,1]", s.Share)
		}
		total += s.Share
	}
	if total > 1+1e-9 {
		t.Errorf("shares sum to %v > 1", total)
	}
	// Sorted descending.
	for i := 1; i < len(sup); i++ {
		if sup[i].Contribution > sup[i-1].Contribution {
			t.Error("supporters not sorted by contribution")
		}
	}
}

func TestContributionToValidation(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}})
	v := UniformJump(3)
	if _, err := ContributionTo(g, 9, v, DefaultConfig()); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := ContributionTo(g, 0, Vector{1}, DefaultConfig()); err == nil {
		t.Error("wrong-length jump vector accepted")
	}
	if _, err := ContributionTo(g, 0, v, Config{Damping: 2}); err == nil {
		t.Error("invalid damping accepted")
	}
}
