package baseline

import (
	"math/rand"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/pagerank"
	"spammass/internal/paperfig"
)

func cfg() pagerank.Config { return pagerank.DefaultConfig() }

func figure1Labels(f *paperfig.Figure1) LabelFunc {
	spam := map[graph.NodeID]bool{}
	for _, s := range f.SpamNodes() {
		spam[s] = true
	}
	return func(x graph.NodeID) Label {
		if spam[x] {
			return Spam
		}
		return Good
	}
}

// TestScheme1FailsOnFigure1 reproduces the Section 3.1 narrative:
// counting in-links labels x good even for large k.
func TestScheme1FailsOnFigure1(t *testing.T) {
	for _, k := range []int{2, 5, 20} {
		f := paperfig.NewFigure1(k)
		if got := NaiveScheme1(f.Graph, f.X, figure1Labels(f)); got != Good {
			t.Errorf("k=%d: scheme 1 labeled x %v; the paper's point is that it says good", k, got)
		}
	}
}

// TestScheme2SucceedsOnFigure1 for k ≥ ⌈1/c⌉ = 2: the spam link's
// contribution (c+kc²) exceeds the two good links' (2c).
func TestScheme2SucceedsOnFigure1(t *testing.T) {
	for _, c := range []struct {
		k    int
		want Label
	}{{0, Good}, {1, Good}, {2, Spam}, {5, Spam}} {
		f := paperfig.NewFigure1(c.k)
		got, err := NaiveScheme2(f.Graph, f.X, figure1Labels(f), cfg())
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("k=%d: scheme 2 labeled x %v, want %v", c.k, got, c.want)
		}
	}
}

// TestBothSchemesFailOnFigure2: the graph where only full contribution
// analysis (spam mass) gets it right.
func TestBothSchemesFailOnFigure2(t *testing.T) {
	f := paperfig.NewFigure2()
	spam := map[graph.NodeID]bool{}
	for _, s := range f.S {
		spam[s] = true
	}
	labels := func(x graph.NodeID) Label {
		if spam[x] {
			return Spam
		}
		return Good
	}
	if got := NaiveScheme1(f.Graph, f.X, labels); got != Good {
		t.Errorf("scheme 1 labeled x %v; paper says it fails with good", got)
	}
	got, err := NaiveScheme2(f.Graph, f.X, labels, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if got != Good {
		t.Errorf("scheme 2 labeled x %v; paper says it fails with good", got)
	}
}

// TestDegreeOutliers: plant a large cohort of nodes with identical
// in-degree on top of an organic power-law background and verify the
// detector flags exactly that cohort's degree.
func TestDegreeOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := graph.NewBuilder(6000)
	// Organic background: power-law-ish in-degrees over nodes 0..3999.
	for x := 0; x < 4000; x++ {
		d := 1 + rng.Intn(12)
		for i := 0; i < d; i++ {
			// Preferential-ish: favor low IDs.
			dst := rng.Intn(1 + rng.Intn(4000))
			b.AddEdge(graph.NodeID(x), graph.NodeID(dst))
		}
	}
	// Machine-generated cohort: nodes 4000..4999 each get exactly 7
	// in-links from distinct boosters 5000..5999.
	for x := 4000; x < 5000; x++ {
		for i := 0; i < 7; i++ {
			b.AddEdge(graph.NodeID(5000+(x*7+i)%1000), graph.NodeID(x))
		}
	}
	g := b.Build()
	flagged, err := DegreeOutliers(g, DegreeOutlierConfig{In: true, MinDegree: 2, OutlierFactor: 3, MinCount: 50})
	if err != nil {
		t.Fatal(err)
	}
	inCohort := 0
	for _, x := range flagged {
		if x >= 4000 && x < 5000 {
			inCohort++
		}
	}
	if inCohort < 900 {
		t.Errorf("flagged %d of 1000 cohort nodes, want most of them (total flagged %d)", inCohort, len(flagged))
	}
	if len(flagged)-inCohort > len(flagged)/2 {
		t.Errorf("more than half of %d flagged nodes are organic", len(flagged))
	}
}

func TestDegreeOutliersValidation(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}})
	if _, err := DegreeOutliers(g, DegreeOutlierConfig{OutlierFactor: 1}); err == nil {
		t.Error("outlier factor 1 accepted")
	}
	// Tiny graphs have no signal; the detector must return empty, not error.
	flagged, err := DegreeOutliers(g, DefaultDegreeOutlierConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(flagged) != 0 {
		t.Errorf("tiny graph flagged %d nodes", len(flagged))
	}
}

// TestSpamRankScores: a farm target whose thousands of supporters all
// share one tiny PageRank value deviates maximally from a power law,
// while an organically supported hub does not.
func TestSpamRankScores(t *testing.T) {
	b := graph.NewBuilder(0)
	hub := b.AddNode()
	target := b.AddNode()
	// Organic supporters of the hub: their own popularity decays like
	// a power law (supporter i gets ~12/(i+1) leaf endorsements), so
	// their PageRank values spread over a decade the way a real hub's
	// supporters do.
	var organic []graph.NodeID
	for i := 0; i < 120; i++ {
		organic = append(organic, b.AddNode())
	}
	for i, x := range organic {
		b.AddEdge(x, hub)
		leaves := 12 / (i + 1)
		for l := 0; l < leaves; l++ {
			leaf := b.AddNode()
			b.AddEdge(leaf, x)
		}
	}
	// Boosters of the target: leaves, all with the exact same score.
	for i := 0; i < 120; i++ {
		booster := b.AddNode()
		b.AddEdge(booster, target)
	}
	g := b.Build()
	p, err := pagerank.Jacobi(g, pagerank.UniformJump(g.NumNodes()), cfg())
	if err != nil {
		t.Fatal(err)
	}
	scores, err := SpamRankScores(g, p.Scores, SpamRankConfig{MinInDegree: 20, BinsPerDecade: 4})
	if err != nil {
		t.Fatal(err)
	}
	if scores[target] <= scores[hub] {
		t.Errorf("target deviation %v not above organic hub deviation %v", scores[target], scores[hub])
	}
	if scores[target] < 0.5 {
		t.Errorf("uniform-supporter target scored only %v", scores[target])
	}
	// Low-indegree nodes must score zero (no evidence).
	if scores[organic[0]] != 0 {
		t.Errorf("low-evidence node scored %v, want 0", scores[organic[0]])
	}
	top := TopSpamRank(scores, 1)
	if len(top) != 1 || top[0] != target {
		t.Errorf("TopSpamRank(1) = %v, want [target=%d]", top, target)
	}
}

func TestSpamRankValidation(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}})
	p := pagerank.Vector{0.1, 0.1, 0.1}
	if _, err := SpamRankScores(g, p, SpamRankConfig{MinInDegree: 1, BinsPerDecade: 4}); err == nil {
		t.Error("MinInDegree 1 accepted")
	}
	if _, err := SpamRankScores(g, p, SpamRankConfig{MinInDegree: 5, BinsPerDecade: 0}); err == nil {
		t.Error("BinsPerDecade 0 accepted")
	}
	if _, err := SpamRankScores(g, pagerank.Vector{0.1}, DefaultSpamRankConfig()); err == nil {
		t.Error("mismatched vector length accepted")
	}
}

func TestTopSpamRankClamp(t *testing.T) {
	got := TopSpamRank([]float64{0.3, 0.9, 0.1}, 10)
	if len(got) != 3 || got[0] != 1 {
		t.Errorf("TopSpamRank = %v", got)
	}
}

func TestNaiveScheme2ErrorPropagation(t *testing.T) {
	f := paperfig.NewFigure1(1)
	bad := pagerank.Config{Damping: 2} // invalid
	if _, err := NaiveScheme2(f.Graph, f.X, figure1Labels(f), bad); err == nil {
		t.Error("invalid solver config accepted")
	}
}
