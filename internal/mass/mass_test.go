package mass

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"spammass/internal/graph"
	"spammass/internal/pagerank"
	"spammass/internal/paperfig"
	"spammass/internal/testutil"
)

const c = paperfig.Damping

func unscaledOpts() Options {
	return Options{Solver: pagerank.DefaultConfig(), Gamma: 0} // plain v^Ṽ⁺, as in Table 1
}

// TestTable1Exact reproduces every column of Table 1 of the paper
// against the closed forms, for the Figure 2 graph with good core
// {g0, g1, g3} and ground-truth spam set {x, s0..s6}.
func TestTable1Exact(t *testing.T) {
	f := paperfig.NewFigure2()
	want := paperfig.ExpectedTable1(c)
	scale := float64(12) / (1 - c)

	est, err := EstimateFromCore(f.Graph, f.GoodCore(), unscaledOpts())
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Exact(f.Graph, f.SpamNodes(), unscaledOpts())
	if err != nil {
		t.Fatal(err)
	}

	ids, labels := f.NodeOrder()
	for i, id := range ids {
		checks := []struct {
			name      string
			got, want float64
		}{
			{"p", est.P[id] * scale, want.P[i]},
			{"p'", est.PCore[id] * scale, want.PCore[i]},
			{"M", exact.Abs[id] * scale, want.M[i]},
			{"M~", est.Abs[id] * scale, want.MEst[i]},
			{"m", exact.Rel[id], want.RelM[i]},
			{"m~", est.Rel[id], want.RelME[i]},
		}
		for _, ch := range checks {
			if !testutil.AlmostEqual(ch.got, ch.want, 1e-8) {
				t.Errorf("%s[%s] = %v, want %v", ch.name, labels[i], ch.got, ch.want)
			}
		}
	}
}

// TestTable1PaperRounding spot-checks the numbers exactly as printed in
// the paper (two-decimal rounding).
func TestTable1PaperRounding(t *testing.T) {
	f := paperfig.NewFigure2()
	est, err := EstimateFromCore(f.Graph, f.GoodCore(), unscaledOpts())
	if err != nil {
		t.Fatal(err)
	}
	printed := []struct {
		name string
		got  float64
		want float64
		tol  float64
	}{
		{"scaled p_x", est.ScaledPageRank(f.X), 9.33, 0.005},
		{"scaled p'_x", est.PCore[f.X] * 12 / (1 - c), 2.295, 0.0005},
		{"scaled M~_x", est.ScaledAbsMass(f.X), 7.035, 0.0005},
		{"m~_x", est.Rel[f.X], 0.75, 0.005},
		{"m~_g0", est.Rel[f.G[0]], 0.31, 0.005},
		{"m~_g2", est.Rel[f.G[2]], 0.69, 0.005},
		{"m~_s0", est.Rel[f.S[0]], 1.0, 1e-9},
	}
	for _, p := range printed {
		if math.Abs(p.got-p.want) > p.tol {
			t.Errorf("%s = %v, paper prints %v", p.name, p.got, p.want)
		}
	}
}

// TestAlgorithm2Walkthrough reproduces the Section 3.6 walkthrough:
// with ρ = 1.5 and τ = 0.5, S = {x, s0, g2} — g2 being the false
// positive caused by the incomplete core — and g0 correctly excluded.
func TestAlgorithm2Walkthrough(t *testing.T) {
	f := paperfig.NewFigure2()
	est, err := EstimateFromCore(f.Graph, f.GoodCore(), unscaledOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := DetectSet(est, DetectConfig{RelMassThreshold: 0.5, ScaledPageRankThreshold: 1.5})
	want := map[graph.NodeID]bool{f.X: true, f.S[0]: true, f.G[2]: true}
	if len(s) != len(want) {
		t.Fatalf("candidate set has %d nodes %v, want %d", len(s), s, len(want))
	}
	for id := range want {
		if !s[id] {
			t.Errorf("node %d missing from candidate set", id)
		}
	}
	if s[f.G[0]] {
		t.Error("g0 labeled spam; paper excludes it (m~ = 0.31 < τ)")
	}
	// Low-PageRank nodes must be filtered regardless of relative mass:
	// s1..s6 all have m~ = 1 but scaled PageRank 1 < ρ.
	for i := 1; i <= 6; i++ {
		if s[f.S[i]] {
			t.Errorf("s%d labeled spam despite PageRank below ρ", i)
		}
	}
}

// TestPerfectCoreMatchesExact: with the full set of good nodes as core
// and no jump scaling, M̃ = M exactly (p' is precisely q^{V⁺}).
func TestPerfectCoreMatchesExact(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 3+rng.Intn(30), 4)
		n := g.NumNodes()
		// Random ground-truth partition with at least one good node.
		var good, spam []graph.NodeID
		for x := 0; x < n; x++ {
			if rng.Float64() < 0.6 {
				good = append(good, graph.NodeID(x))
			} else {
				spam = append(spam, graph.NodeID(x))
			}
		}
		if len(good) == 0 {
			good = append(good, 0)
			spam = spam[1:]
		}
		est, err := EstimateFromCore(g, good, unscaledOpts())
		if err != nil {
			return false
		}
		var exact *Estimates
		if len(spam) == 0 {
			// No spam: actual mass is identically zero.
			exact = &Estimates{Abs: make(pagerank.Vector, n)}
		} else {
			exact, err = Exact(g, spam, unscaledOpts())
			if err != nil {
				return false
			}
		}
		return testutil.MaxAbsDiff(est.Abs, exact.Abs) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDetectMonotonicity: raising either threshold can only shrink S.
func TestDetectMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := testutil.RandomGraph(rng, 60, 4)
	core := []graph.NodeID{0, 7, 13, 21}
	est, err := EstimateFromCore(g, core, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prev := len(Detect(est, DetectConfig{RelMassThreshold: -2, ScaledPageRankThreshold: 0}))
	for _, tau := range []float64{0, 0.25, 0.5, 0.75, 0.98, 1.01} {
		cur := len(Detect(est, DetectConfig{RelMassThreshold: tau, ScaledPageRankThreshold: 0}))
		if cur > prev {
			t.Errorf("τ=%v: |S| grew from %d to %d", tau, prev, cur)
		}
		prev = cur
	}
	prev = len(Detect(est, DetectConfig{RelMassThreshold: 0, ScaledPageRankThreshold: 0}))
	for _, rho := range []float64{0.5, 1, 2, 5, 10} {
		cur := len(Detect(est, DetectConfig{RelMassThreshold: 0, ScaledPageRankThreshold: rho}))
		if cur > prev {
			t.Errorf("ρ=%v: |S| grew from %d to %d", rho, prev, cur)
		}
		prev = cur
	}
}

// TestScaledCoreNegativeMass: with the γ-scaled jump vector, good-core
// members receive an unusually high jump (γ/|Ṽ⁺| ≫ 1/n), so their
// estimated mass must go negative (Section 3.5).
func TestScaledCoreNegativeMass(t *testing.T) {
	f := paperfig.NewFigure2()
	est, err := EstimateFromCore(f.Graph, f.GoodCore(), Options{Solver: pagerank.DefaultConfig(), Gamma: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range f.GoodCore() {
		if est.Abs[id] >= 0 {
			t.Errorf("core member %d has non-negative mass %v under scaled jump", id, est.Abs[id])
		}
	}
	// The spam nodes' relative mass must stay high.
	if est.Rel[f.S[0]] < 0.9 {
		t.Errorf("m~_s0 = %v under scaled jump, want near 1", est.Rel[f.S[0]])
	}
}

// TestScalingFixesNormCollapse demonstrates the Section 3.5 problem on
// a larger graph: with a tiny unscaled core, ‖p'‖ ≪ ‖p‖ and estimated
// mass approximately equals PageRank everywhere; γ-scaling restores a
// meaningful total good contribution.
func TestScalingFixesNormCollapse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := testutil.RandomGraph(rng, 2000, 4)
	core := []graph.NodeID{1, 2, 3} // 0.15% of nodes
	plain, err := EstimateFromCore(g, core, unscaledOpts())
	if err != nil {
		t.Fatal(err)
	}
	scaledEst, err := EstimateFromCore(g, core, Options{Solver: pagerank.DefaultConfig(), Gamma: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	pNorm := plain.P.Norm1()
	if r := plain.TotalEstimatedGoodContribution() / pNorm; r > 0.01 {
		t.Errorf("unscaled core: ‖p'‖/‖p‖ = %v, expected collapse below 1%%", r)
	}
	if r := scaledEst.TotalEstimatedGoodContribution() / pNorm; r < 0.5 {
		t.Errorf("scaled core: ‖p'‖/‖p‖ = %v, expected a meaningful fraction", r)
	}
}

func TestEstimateInputValidation(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}})
	if _, err := EstimateFromCore(g, nil, DefaultOptions()); err == nil {
		t.Error("empty core accepted")
	}
	if _, err := EstimateFromCore(g, []graph.NodeID{9}, DefaultOptions()); err == nil {
		t.Error("out-of-range core node accepted")
	}
	if _, err := EstimateFromCore(g, []graph.NodeID{1, 1}, DefaultOptions()); err == nil {
		t.Error("duplicate core node accepted")
	}
	if _, err := EstimateFromCore(g, []graph.NodeID{1}, Options{Gamma: 1.5}); err == nil {
		t.Error("gamma > 1 accepted")
	}
	// Exact takes the ground-truth spam set unchecked by validateCore (it
	// may be empty), but a node outside the graph is still an error that
	// names it, not an index panic in the jump restriction.
	if _, err := Exact(g, []graph.NodeID{99}, DefaultOptions()); err == nil || !strings.Contains(err.Error(), "99") {
		t.Errorf("out-of-range spam node: err = %v, want an error naming node 99", err)
	}
}

// TestBlacklistEstimator: on Figure 2 with the full spam set as the
// black list and no scaling, M̂ equals the exact mass.
func TestBlacklistEstimator(t *testing.T) {
	f := paperfig.NewFigure2()
	black, err := EstimateFromBlacklist(f.Graph, f.SpamNodes(), 0, unscaledOpts())
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Exact(f.Graph, f.SpamNodes(), unscaledOpts())
	if err != nil {
		t.Fatal(err)
	}
	if d := testutil.MaxAbsDiff(black.Abs, exact.Abs); d > 1e-9 {
		t.Errorf("black-list estimate differs from exact mass by %v", d)
	}
}

// TestCombine: averaging a white-list and black-list estimate.
func TestCombine(t *testing.T) {
	f := paperfig.NewFigure2()
	white, err := EstimateFromCore(f.Graph, f.GoodCore(), unscaledOpts())
	if err != nil {
		t.Fatal(err)
	}
	black, err := EstimateFromBlacklist(f.Graph, f.S[:], 0, unscaledOpts())
	if err != nil {
		t.Fatal(err)
	}
	comb, err := Combine(white, black)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 12; x++ {
		want := (white.Abs[x] + black.Abs[x]) / 2
		if !testutil.AlmostEqual(comb.Abs[x], want, 1e-12) {
			t.Errorf("combined mass[%d] = %v, want %v", x, comb.Abs[x], want)
		}
	}
	// WeightedCombine with λ = 0.5 must agree with Combine.
	wc, err := WeightedCombine(white, black, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d := testutil.MaxAbsDiff(comb.Abs, wc.Abs); d > 1e-12 {
		t.Errorf("WeightedCombine(0.5) differs from Combine by %v", d)
	}
	if _, err := WeightedCombine(white, black, 1.5); err == nil {
		t.Error("weight outside [0,1] accepted")
	}
}

func TestCoreWeightLambda(t *testing.T) {
	// Equal coverage of the two populations → λ = 0.5.
	if got := CoreWeightLambda(850, 150, 10000, 0.85); !testutil.AlmostEqual(got, 0.5, 1e-12) {
		t.Errorf("balanced coverage λ = %v, want 0.5", got)
	}
	// Much better good coverage → λ near 1.
	if got := CoreWeightLambda(8500, 15, 10000, 0.85); got < 0.9 {
		t.Errorf("good-heavy coverage λ = %v, want > 0.9", got)
	}
	// Degenerate inputs fall back to 0.5.
	if got := CoreWeightLambda(0, 0, 0, 0.85); got != 0.5 {
		t.Errorf("degenerate λ = %v, want 0.5", got)
	}
}

func TestFilterByPageRank(t *testing.T) {
	f := paperfig.NewFigure2()
	est, err := EstimateFromCore(f.Graph, f.GoodCore(), unscaledOpts())
	if err != nil {
		t.Fatal(err)
	}
	// ρ = 1.5 keeps x (9.33), g0 (2.7), g2 (2.7), s0 (4.4).
	got := FilterByPageRank(est, 1.5)
	if len(got) != 4 {
		t.Fatalf("|T| = %d (%v), want 4", len(got), got)
	}
	for _, id := range got {
		if est.ScaledPageRank(id) < 1.5 {
			t.Errorf("node %d below threshold in T", id)
		}
	}
}

func TestTopByAbsMass(t *testing.T) {
	f := paperfig.NewFigure2()
	est, err := EstimateFromCore(f.Graph, f.GoodCore(), unscaledOpts())
	if err != nil {
		t.Fatal(err)
	}
	top := TopByAbsMass(est, 3)
	if len(top) != 3 {
		t.Fatalf("TopByAbsMass returned %d entries, want 3", len(top))
	}
	if top[0].Node != f.X {
		t.Errorf("largest estimated mass at node %d, want x=%d", top[0].Node, f.X)
	}
	for i := 1; i < len(top); i++ {
		if est.Abs[top[i].Node] > est.Abs[top[i-1].Node] {
			t.Error("TopByAbsMass not sorted descending")
		}
	}
	if got := TopByAbsMass(est, 100); len(got) != 12 {
		t.Errorf("TopByAbsMass(100) returned %d entries, want clamped to 12", len(got))
	}
}

func TestCandidateString(t *testing.T) {
	s := Candidate{Node: 5, ScaledPageRank: 12.3456, RelMass: 0.987}.String()
	if s == "" {
		t.Error("empty candidate string")
	}
}

// TestRelMassOrNaN: a node unreachable under a restricted jump has
// p = 0; the safe accessor must return NaN rather than dividing.
func TestRelMassOrNaN(t *testing.T) {
	e := &Estimates{P: pagerank.Vector{0, 1}, Rel: pagerank.Vector{0, 0.5}, Damping: c}
	if !math.IsNaN(e.RelMassOrNaN(0)) {
		t.Error("zero-PageRank node did not yield NaN")
	}
	if e.RelMassOrNaN(1) != 0.5 {
		t.Error("positive-PageRank node mangled")
	}
	// A NaN PageRank entry compares false to everything; the guard must
	// still route it to the NaN sentinel instead of returning the
	// stored (meaningless) relative mass.
	nan := &Estimates{P: pagerank.Vector{math.NaN()}, Rel: pagerank.Vector{0.25}, Damping: c}
	if !math.IsNaN(nan.RelMassOrNaN(0)) {
		t.Error("NaN-PageRank node did not yield NaN")
	}
}

// TestRecomputeMatchesCold: warm-started re-estimation after a core
// edit must match a cold estimation exactly (same fixpoint), in fewer
// iterations.
func TestRecomputeMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := testutil.RandomGraph(rng, 3000, 5)
	core := []graph.NodeID{1, 10, 100, 1000}
	opts := Options{Solver: pagerank.DefaultConfig(), Gamma: 0.85}
	prev, err := EstimateFromCore(g, core, opts)
	if err != nil {
		t.Fatal(err)
	}
	grown := append(append([]graph.NodeID(nil), core...), 2000, 2500)
	cold, err := EstimateFromCore(g, grown, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := recompute(g, prev, grown, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := testutil.MaxAbsDiff(cold.Abs, warm.Abs); d > 1e-9 {
		t.Errorf("warm recompute differs from cold by %v", d)
	}
	if d := testutil.MaxAbsDiff(cold.Rel, warm.Rel); d > 1e-9 {
		t.Errorf("warm relative masses differ from cold by %v", d)
	}
	// Validation paths.
	if _, err := recompute(g, prev, nil, opts); err == nil {
		t.Error("empty core accepted")
	}
	small := &Estimates{P: pagerank.Vector{1}, PCore: pagerank.Vector{1}}
	if _, err := recompute(g, small, grown, opts); err == nil {
		t.Error("mismatched previous estimates accepted")
	}
}

// TestMassInvariantsProperty: on random graphs and cores, the derived
// quantities obey their defining identities.
func TestMassInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 10+rng.Intn(100), 4)
		n := g.NumNodes()
		k := 1 + rng.Intn(n/2+1)
		seen := map[graph.NodeID]bool{}
		var core []graph.NodeID
		for len(core) < k {
			x := graph.NodeID(rng.Intn(n))
			if !seen[x] {
				seen[x] = true
				core = append(core, x)
			}
		}
		est, err := EstimateFromCore(g, core, Options{Solver: pagerank.DefaultConfig(), Gamma: 0.85})
		if err != nil {
			return false
		}
		for x := 0; x < n; x++ {
			// M~ + p' = p exactly.
			if math.Abs(est.P[x]-(est.Abs[x]+est.PCore[x])) > 1e-12 {
				return false
			}
			// m~ ≤ 1 (p' ≥ 0 always).
			if est.P[x] > 0 && est.Rel[x] > 1+1e-12 {
				return false
			}
			if est.PCore[x] < -1e-15 {
				return false
			}
		}
		// Detection output is always a subset of the rho-filtered set.
		cands := Detect(est, DetectConfig{RelMassThreshold: 0.5, ScaledPageRankThreshold: 2})
		inT := map[graph.NodeID]bool{}
		for _, x := range FilterByPageRank(est, 2) {
			inT[x] = true
		}
		for _, c := range cands {
			if !inT[c.Node] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAlgorithmChoiceEquivalent: estimation with the served push
// reaches the same fixpoint as Jacobi.
func TestAlgorithmChoiceEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g := testutil.RandomGraph(rng, 800, 5)
	core := []graph.NodeID{2, 30, 400}
	ja, err := EstimateFromCore(g, core, Options{Solver: pagerank.DefaultConfig(), Gamma: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	pushCfg := pagerank.DefaultConfig()
	pushCfg.Algorithm = pagerank.AlgoGaussSouthwell
	push, err := EstimateFromCore(g, core, Options{Solver: pushCfg, Gamma: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	if d := testutil.MaxAbsDiff(ja.Abs, push.Abs); d > 1e-9 {
		t.Errorf("Jacobi and Gauss-Southwell estimates differ by %v", d)
	}
	bad := pagerank.DefaultConfig()
	bad.Algorithm = pagerank.Algorithm(99)
	if _, err := EstimateFromCore(g, core, Options{Solver: bad}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestEstimatesOwnTheirVectors is the aliasing regression test: the
// vectors of an Estimates must never be shared with caller-owned
// vectors or with a sibling Estimates, so in-place Vector mutation on
// one estimate cannot corrupt another.
func TestEstimatesOwnTheirVectors(t *testing.T) {
	f := paperfig.NewFigure2()
	pr, err := pagerank.Jacobi(f.Graph, pagerank.UniformJump(12), pagerank.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prCore, err := pagerank.Jacobi(f.Graph, pagerank.ScaledCoreJump(12, f.GoodCore(), 0.85), pagerank.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, pCore := pr.Scores, prCore.Scores

	// Derive must not alias its arguments.
	white := Derive(p, pCore, c)
	pBefore := white.P.Clone()
	p.Scale(100)
	pCore.Scale(100)
	if d := testutil.MaxAbsDiff(white.P, pBefore); d != 0 {
		t.Errorf("Derive aliases the caller's p: mutating it moved P by %v", d)
	}

	// Recompute must not thread prev's vectors into the new estimates.
	prev, err := EstimateFromCore(f.Graph, f.GoodCore(), Options{Solver: pagerank.DefaultConfig(), Gamma: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	next, err := recompute(f.Graph, prev, f.GoodCore()[:2], Options{Solver: pagerank.DefaultConfig(), Gamma: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	nextP := next.P.Clone()
	nextRel := next.Rel.Clone()
	prev.P.Scale(3)
	prev.PCore.Scale(3)
	if d := testutil.MaxAbsDiff(next.P, nextP); d != 0 {
		t.Errorf("Recompute shares P with prev: mutation moved it by %v", d)
	}

	// Combine must not alias the white estimate.
	black, err := EstimateFromBlacklist(f.Graph, f.SpamNodes(), 0.15, Options{Solver: pagerank.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	comb, err := Combine(next, black)
	if err != nil {
		t.Fatal(err)
	}
	combAbs := comb.Abs.Clone()
	next.P.Scale(7)
	next.Abs.Scale(7)
	black.Abs.Scale(7)
	if d := testutil.MaxAbsDiff(comb.Abs, combAbs); d != 0 {
		t.Errorf("Combine shares vectors with its inputs: mutation moved Abs by %v", d)
	}
	if d := testutil.MaxAbsDiff(next.Rel, nextRel); d != 0 {
		t.Errorf("mutating sibling estimates corrupted Rel by %v", d)
	}
}

// TestNonConvergencePropagates proves the acceptance criterion: a
// non-converging solve cannot reach Derive without either a
// pagerank.ErrNotConverged or an explicit AllowTruncated opt-in.
func TestNonConvergencePropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := testutil.RandomGraph(rng, 200, 5)
	core := []graph.NodeID{1, 2, 3}
	tight := pagerank.Config{Damping: 0.85, Epsilon: 1e-300, MaxIter: 2}

	for name, call := range map[string]func(Options) (*Estimates, error){
		"EstimateFromCore": func(o Options) (*Estimates, error) { return EstimateFromCore(g, core, o) },
		"EstimateFromBlacklist": func(o Options) (*Estimates, error) {
			return EstimateFromBlacklist(g, core, 0.15, o)
		},
		"Exact": func(o Options) (*Estimates, error) { return Exact(g, core, o) },
	} {
		est, err := call(Options{Solver: tight, Gamma: 0.85})
		if !pagerank.IsNotConverged(err) {
			t.Errorf("%s: err = %v, want wrapped *ErrNotConverged", name, err)
		}
		if est != nil {
			t.Errorf("%s: returned estimates despite non-convergence", name)
		}
		allow := tight
		allow.AllowTruncated = true
		est, err = call(Options{Solver: allow, Gamma: 0.85})
		if err != nil {
			t.Errorf("%s: AllowTruncated solve rejected: %v", name, err)
		}
		if est == nil {
			t.Errorf("%s: AllowTruncated returned no estimates", name)
		}
	}

	// Recompute: the warm solve must also propagate.
	ok, err := EstimateFromCore(g, core, Options{Solver: pagerank.DefaultConfig(), Gamma: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recompute(g, ok, core[:2], Options{Solver: tight, Gamma: 0.85}); !pagerank.IsNotConverged(err) {
		t.Errorf("Recompute: err = %v, want wrapped *ErrNotConverged", err)
	}
}

// TestEstimatorReuse checks that one Estimator serves repeated and
// batched estimations with the same results as throwaway calls.
func TestEstimatorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := testutil.RandomGraph(rng, 400, 5)
	cores := [][]graph.NodeID{{1, 2, 3, 4}, {1, 2}, {5, 9, 11}}
	opts := Options{Solver: pagerank.DefaultConfig(), Gamma: 0.85}
	es, err := NewEstimator(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	base, err := es.EstimateFromCore(cores[0])
	if err != nil {
		t.Fatal(err)
	}
	many, err := es.RecomputeMany(base, cores)
	if err != nil {
		t.Fatal(err)
	}
	for i, core := range cores {
		single, err := EstimateFromCore(g, core, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := testutil.MaxAbsDiff(single.Rel, many[i].Rel); d > 1e-9 {
			t.Errorf("core %d: batched recompute deviates from cold estimate by %v", i, d)
		}
	}
}

// TestGammaValidatedOnce checks the centralized range validation.
func TestGammaValidatedOnce(t *testing.T) {
	f := paperfig.NewFigure2()
	if _, err := EstimateFromCore(f.Graph, f.GoodCore(), Options{Gamma: 1.5}); err == nil {
		t.Error("gamma 1.5 accepted")
	}
	if _, err := NewEstimator(f.Graph, Options{Gamma: -0.1}); err == nil {
		t.Error("gamma -0.1 accepted")
	}
	if _, err := EstimateFromBlacklist(f.Graph, f.SpamNodes(), 1.2, Options{}); err == nil {
		t.Error("beta 1.2 accepted")
	}
	// NaN compares false to everything, so a range test written with
	// < and > lets it through.
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewEstimator(f.Graph, Options{Gamma: x}); err == nil {
			t.Errorf("gamma %v accepted", x)
		}
		if _, err := EstimateFromBlacklist(f.Graph, f.SpamNodes(), x, Options{}); err == nil {
			t.Errorf("beta %v accepted", x)
		}
		if _, err := RemapWarmStart(&Estimates{}, nil, 0, nil, x); err == nil {
			t.Errorf("RemapWarmStart: gamma %v accepted", x)
		}
		if _, err := NewEstimator(f.Graph, Options{Solver: pagerank.Config{Damping: x}}); err == nil {
			t.Errorf("damping %v accepted", x)
		}
		w, err := EstimateFromCore(f.Graph, f.GoodCore(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WeightedCombine(w, w, x); err == nil {
			t.Errorf("weight %v accepted", x)
		}
	}
}

// recompute runs Estimator.Recompute on a throwaway estimator.
func recompute(g *graph.Graph, prev *Estimates, core []graph.NodeID, opts Options) (*Estimates, error) {
	es, err := NewEstimator(g, opts)
	if err != nil {
		return nil, err
	}
	defer es.Close()
	return es.Recompute(prev, core)
}
