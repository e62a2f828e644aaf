package spammass_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"spammass"
)

// buildFarmGraph builds a small world: a reputable cluster (0,1,2), a
// spam farm (target 3 boosted by 4..13), and a contested node.
func buildFarmGraph() *spammass.Graph {
	b := spammass.NewBuilder(14)
	// Reputable triangle.
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(0, 3) // one stray link to the farm target
	// The farm: boosters 4..13 all point at 3.
	for x := spammass.NodeID(4); x <= 13; x++ {
		b.AddEdge(x, 3)
	}
	return b.Build()
}

func TestFacadeEndToEnd(t *testing.T) {
	g := buildFarmGraph()
	res, err := spammass.PageRank(g, spammass.DefaultSolverConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("PageRank did not converge")
	}
	est, err := spammass.Estimate(g, []spammass.NodeID{0, 1, 2}, spammass.EstimateOptions{
		Solver: spammass.DefaultSolverConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cands := spammass.Detect(est, spammass.DetectConfig{
		RelMassThreshold:        0.5,
		ScaledPageRankThreshold: 2,
	})
	if len(cands) != 1 || cands[0].Node != 3 {
		t.Fatalf("candidates = %v, want exactly the farm target 3", cands)
	}
	if cands[0].RelMass < 0.8 {
		t.Errorf("farm target relative mass %.3f, want high", cands[0].RelMass)
	}
}

func TestFacadeExactMassMatchesEstimateWithFullCore(t *testing.T) {
	g := buildFarmGraph()
	good := []spammass.NodeID{0, 1, 2}
	spam := []spammass.NodeID{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	est, err := spammass.Estimate(g, good, spammass.EstimateOptions{Solver: spammass.DefaultSolverConfig()})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := spammass.ExactMass(g, spam, spammass.EstimateOptions{Solver: spammass.DefaultSolverConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for x := range est.Abs {
		if math.Abs(est.Abs[x]-exact.Abs[x]) > 1e-9 {
			t.Fatalf("node %d: estimated %v vs exact %v with a complete core", x, est.Abs[x], exact.Abs[x])
		}
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g := buildFarmGraph()
	var text, bin bytes.Buffer
	if err := spammass.WriteGraphText(&text, g); err != nil {
		t.Fatal(err)
	}
	if err := spammass.WriteGraphBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	gt, err := spammass.ReadGraphText(&text)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := spammass.ReadGraphBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if gt.NumEdges() != g.NumEdges() || gb.NumEdges() != g.NumEdges() {
		t.Error("round trips changed edge counts")
	}
	st := spammass.Stats(g)
	if st.Nodes != 14 {
		t.Errorf("stats nodes = %d", st.Nodes)
	}
}

func TestFacadeTrustRank(t *testing.T) {
	g := buildFarmGraph()
	trust, err := spammass.TrustRank(g, []spammass.NodeID{0, 1, 2}, spammass.DefaultSolverConfig())
	if err != nil {
		t.Fatal(err)
	}
	if trust[4] != 0 {
		t.Errorf("booster has trust %v, want 0", trust[4])
	}
	seeds, err := spammass.SelectTrustRankSeeds(g, func(x spammass.NodeID) bool { return x <= 2 }, 14, 3, spammass.DefaultSolverConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Error("no seeds selected")
	}
}

func TestFacadeWorldAndCore(t *testing.T) {
	w, err := spammass.GenerateWorld(spammass.DefaultWorldConfig(5000))
	if err != nil {
		t.Fatal(err)
	}
	core, err := spammass.AssembleGoodCore(w.Names, w.DirectoryMembers)
	if err != nil {
		t.Fatal(err)
	}
	est, err := spammass.Estimate(w.Graph, core.Nodes, spammass.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cands := spammass.Detect(est, spammass.DefaultDetectConfig())
	if len(cands) == 0 {
		t.Fatal("no candidates on a world with planted farms")
	}
	spamHits := 0
	for _, c := range cands {
		if w.IsSpam(c.Node) || w.Info[c.Node].Anomalous {
			spamHits++
		}
	}
	if frac := float64(spamHits) / float64(len(cands)); frac < 0.7 {
		t.Errorf("only %.0f%% of candidates are spam or known anomalies", 100*frac)
	}
}

func TestFacadeCombine(t *testing.T) {
	g := buildFarmGraph()
	white, err := spammass.Estimate(g, []spammass.NodeID{0, 1, 2}, spammass.EstimateOptions{Solver: spammass.DefaultSolverConfig()})
	if err != nil {
		t.Fatal(err)
	}
	black, err := spammass.EstimateFromBlacklist(g, []spammass.NodeID{4, 5}, 0, spammass.EstimateOptions{Solver: spammass.DefaultSolverConfig()})
	if err != nil {
		t.Fatal(err)
	}
	comb, err := spammass.CombineEstimates(white, black)
	if err != nil {
		t.Fatal(err)
	}
	if comb.N() != white.N() {
		t.Error("combined estimate has wrong length")
	}
}

func TestFacadeCollapseToHosts(t *testing.T) {
	pages := spammass.FromEdges(3, [][2]spammass.NodeID{{0, 1}, {1, 2}})
	h, err := spammass.CollapseToHosts(pages, []string{"http://a/x", "http://a/y", "http://b/z"})
	if err != nil {
		t.Fatal(err)
	}
	if h.Graph.NumNodes() != 2 || h.Graph.NumEdges() != 1 {
		t.Errorf("collapsed to %d nodes / %d edges, want 2 / 1", h.Graph.NumNodes(), h.Graph.NumEdges())
	}
}

// ExampleDetect demonstrates the quickstart flow on a ten-booster farm.
func ExampleDetect() {
	b := spammass.NewBuilder(14)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	for x := spammass.NodeID(4); x <= 13; x++ {
		b.AddEdge(x, 3) // boosters point at the farm target
	}
	g := b.Build()
	est, err := spammass.Estimate(g, []spammass.NodeID{0, 1, 2}, spammass.EstimateOptions{
		Solver: spammass.DefaultSolverConfig(),
	})
	if err != nil {
		panic(err)
	}
	for _, c := range spammass.Detect(est, spammass.DetectConfig{RelMassThreshold: 0.9, ScaledPageRankThreshold: 2}) {
		fmt.Printf("node %d relative mass %.2f\n", c.Node, c.RelMass)
	}
	// Output:
	// node 3 relative mass 1.00
}

func TestFacadeDiskGraph(t *testing.T) {
	g := buildFarmGraph()
	exact, err := spammass.PageRank(g, spammass.DefaultSolverConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/g.smgr"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := spammass.WriteGraphBinary(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	dg, err := spammass.OpenDiskGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	v := make(spammass.Vector, n)
	for i := range v {
		v[i] = 1 / float64(n)
	}
	disk, err := dg.Jacobi(v, spammass.DefaultSolverConfig())
	if err != nil {
		t.Fatal(err)
	}
	for x := range disk.Scores {
		if math.Abs(disk.Scores[x]-exact.Scores[x]) > 1e-12 {
			t.Fatalf("disk vs memory PageRank differ at %d", x)
		}
	}
}

func TestFacadeForensicsAndAnomalies(t *testing.T) {
	g := buildFarmGraph()
	est, err := spammass.Estimate(g, []spammass.NodeID{0, 1, 2}, spammass.EstimateOptions{Solver: spammass.DefaultSolverConfig()})
	if err != nil {
		t.Fatal(err)
	}
	cands := spammass.Detect(est, spammass.DetectConfig{RelMassThreshold: 0.5, ScaledPageRankThreshold: 2})
	farms, alliances, err := spammass.ExtractFarms(g, est, cands, spammass.DefaultForensicsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(farms) != 1 || len(alliances) != 1 {
		t.Fatalf("%d farms / %d alliances, want 1 / 1", len(farms), len(alliances))
	}
	single, err := spammass.ExtractFarm(g, est, 3, spammass.DefaultForensicsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if single.BoosterShare < 0.5 {
		t.Errorf("booster share %.3f, want the farm explained", single.BoosterShare)
	}
	sup, px, err := spammass.Supporters(g, 3, spammass.DefaultSolverConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sup) != 5 || px <= 0 {
		t.Fatalf("supporters = %d, px = %v", len(sup), px)
	}
	// Anomaly discovery on this tiny graph: the farm is judged spam,
	// so no good anomalous community exists.
	cfg := spammass.DefaultAnomalyConfig()
	cfg.ScaledPageRankThreshold = 2
	comms, err := spammass.DiscoverAnomalies(g, est, func(x spammass.NodeID) bool { return x != 3 }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(comms) != 0 {
		t.Errorf("tiny graph produced %d anomalous communities", len(comms))
	}
}

func TestFacadeContributionAndJump(t *testing.T) {
	g := buildFarmGraph()
	q, err := spammass.Contribution(g, []spammass.NodeID{4, 5}, spammass.DefaultSolverConfig())
	if err != nil {
		t.Fatal(err)
	}
	if q[3] <= 0 {
		t.Error("boosters contribute nothing to the target")
	}
	n := g.NumNodes()
	v := make(spammass.Vector, n)
	v[0] = 0.5
	res, err := spammass.PageRankWithJump(g, v, spammass.DefaultSolverConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores[0] <= 0 {
		t.Error("custom jump produced zero score at the jump node")
	}
}

func TestFacadeDegreeOutliersAndContent(t *testing.T) {
	// A cohort with identical, unusual in-degree (30) on an organic
	// power-law-ish background.
	rng := rand.New(rand.NewSource(12))
	b := spammass.NewBuilder(20000)
	for x := spammass.NodeID(0); x < 2000; x++ {
		for i := 0; i < 1+rng.Intn(9); i++ {
			// Preferential-ish target pick.
			b.AddEdge(x, spammass.NodeID(rng.Intn(1+rng.Intn(2000))))
		}
	}
	next := 2500
	for x := 2000; x < 2500; x++ {
		for i := 0; i < 30; i++ {
			b.AddEdge(spammass.NodeID(next), spammass.NodeID(x))
			next++
		}
	}
	g := b.Build()
	flagged, err := spammass.DegreeOutliers(g, spammass.DegreeOutlierConfig{
		In: true, MinDegree: 2, OutlierFactor: 3, MinCount: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	inCohort := 0
	for _, x := range flagged {
		if x >= 2000 && x < 2500 {
			inCohort++
		}
	}
	if inCohort < 400 {
		t.Errorf("flagged %d of 500 cohort members", inCohort)
	}

	// Content classifier round trip through the facade.
	feats := []spammass.ContentFeatures{
		{LogWordCount: 3, KeywordDensity: 0.02, Duplication: 0.2},
		{LogWordCount: 2.5, KeywordDensity: 0.18, Duplication: 0.9},
	}
	clf, err := spammass.TrainContentClassifier(
		[]spammass.ContentFeatures{feats[0], feats[1], feats[0], feats[1]},
		[]bool{false, true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if clf.SpamProbability(feats[1]) <= clf.SpamProbability(feats[0]) {
		t.Error("classifier does not separate the training points")
	}
}

// ExampleEstimate shows exact-versus-estimated mass on the smallest
// interesting graph: with a complete core they coincide.
func ExampleEstimate() {
	g := spammass.FromEdges(4, [][2]spammass.NodeID{
		{1, 0}, // good supporter
		{2, 0}, // spam supporter
		{3, 2}, // booster behind it
	})
	est, err := spammass.Estimate(g, []spammass.NodeID{1}, spammass.EstimateOptions{
		Solver: spammass.DefaultSolverConfig(),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("target relative mass %.2f\n", est.Rel[0])
	// Output:
	// target relative mass 0.75
}

// ExampleTrustRank shows the detection gap TrustRank leaves: the farm
// target inherits trust through its one good link, so demotion alone
// does not flag it — the gap spam mass fills.
func ExampleTrustRank() {
	b := spammass.NewBuilder(7)
	b.AddEdge(0, 1) // good cluster
	b.AddEdge(1, 0)
	b.AddEdge(0, 2) // one good link to the target
	for x := spammass.NodeID(3); x <= 6; x++ {
		b.AddEdge(x, 2) // boosters
	}
	g := b.Build()
	trust, err := spammass.TrustRank(g, []spammass.NodeID{0, 1}, spammass.DefaultSolverConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("target trusted: %v, boosters trusted: %v\n", trust[2] > 0, trust[3] > 0)
	// Output:
	// target trusted: true, boosters trusted: false
}
