package experiments

import (
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"spammass/internal/baseline"
	"spammass/internal/graph"
	"spammass/internal/pagerank"
)

// testEnv builds one shared small-scale environment for the
// integration tests (generation plus several PageRank solves is the
// expensive part; every experiment then reuses it).
var sharedEnv *Env

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Hosts = 20000
	cfg.SampleFrac = 0.9
	return cfg
}

func env(t *testing.T) *Env {
	t.Helper()
	if sharedEnv == nil {
		e, err := NewEnv(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		sharedEnv = e
	}
	return sharedEnv
}

func TestRunFigure1(t *testing.T) {
	rows, err := RunFigure1(io.Discard, []int{0, 1, 2, 5}, pagerank.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Scheme1 != baseline.Good {
			t.Errorf("k=%d: scheme 1 = %v, the paper's scheme 1 always says good here", r.K, r.Scheme1)
		}
		wantScheme2 := baseline.Good
		if r.K >= 2 {
			wantScheme2 = baseline.Spam
		}
		if r.Scheme2 != wantScheme2 {
			t.Errorf("k=%d: scheme 2 = %v, want %v", r.K, r.Scheme2, wantScheme2)
		}
	}
}

func TestRunFigure2(t *testing.T) {
	r, err := RunFigure2(io.Discard, pagerank.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Ratio-1.65) > 0.01 {
		t.Errorf("spam/good ratio %.3f, paper prints 1.65", r.Ratio)
	}
	if r.Scheme1 != baseline.Good || r.Scheme2 != baseline.Good {
		t.Error("both naive schemes must fail (label good) on Figure 2")
	}
}

func TestRunTable1(t *testing.T) {
	rows, err := RunTable1(io.Discard, pagerank.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 12", len(rows))
	}
	if math.Abs(rows[0].P-9.33) > 0.005 || math.Abs(rows[0].RelME-0.75) > 0.005 {
		t.Errorf("row x = %+v, want p 9.33 and m~ 0.75", rows[0])
	}
}

func TestRunWalkthrough(t *testing.T) {
	cands, err := RunAlgorithm2Walkthrough(io.Discard, pagerank.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 3 {
		t.Fatalf("%d candidates, paper's walkthrough yields 3", len(cands))
	}
}

func TestEnvDataSetAndCore(t *testing.T) {
	e := env(t)
	ds := e.RunDataSet(io.Discard)
	if f := ds.Stats.FracNoOutlinks(); f < 0.6 || f > 0.72 {
		t.Errorf("no-outlink fraction %.3f far from the paper's 66.4%%", f)
	}
	core := e.RunCore(io.Discard)
	if core.FracOfHosts < 0.004 || core.FracOfHosts > 0.01 {
		t.Errorf("core fraction %.4f far from the paper's 0.69%%", core.FracOfHosts)
	}
	if core.Edu <= core.Gov || core.Gov <= core.Directory {
		t.Errorf("core shares out of order: %+v (paper: edu > gov > directory)", core)
	}
}

func TestEnvPRDist(t *testing.T) {
	e := env(t)
	r, err := e.RunPRDist(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r.FracBelow2 < 0.82 || r.FracBelow2 > 0.96 {
		t.Errorf("fraction below 2: %.3f, paper reports 91.1%%", r.FracBelow2)
	}
	if r.Exponent >= -1 {
		t.Errorf("PageRank density exponent %.2f, want a decaying power law", r.Exponent)
	}
}

func TestEnvTable2AndFigure3(t *testing.T) {
	e := env(t)
	groups := e.RunTable2(io.Discard)
	if len(groups) != e.Cfg.Groups {
		t.Fatalf("%d groups, want %d", len(groups), e.Cfg.Groups)
	}
	if groups[0].SmallestRel >= 0 {
		t.Errorf("group 1 lower bound %.2f, want strongly negative (core members)", groups[0].SmallestRel)
	}
	last := groups[len(groups)-1]
	if last.LargestRel < 0.99 {
		t.Errorf("group %d upper bound %.3f, want ≈ 1", last.Index, last.LargestRel)
	}
	comp := e.RunFigure3(io.Discard)
	goodFrac := float64(comp.Good) / float64(comp.Total())
	spamFrac := float64(comp.Spam) / float64(comp.Total())
	if goodFrac < 0.5 || goodFrac > 0.75 {
		t.Errorf("good fraction %.3f, paper reports 63.2%%", goodFrac)
	}
	if spamFrac < 0.15 || spamFrac > 0.35 {
		t.Errorf("spam fraction %.3f, paper reports 25.7%%", spamFrac)
	}
}

func TestEnvFigure4Shape(t *testing.T) {
	e := env(t)
	r := e.RunFigure4(io.Discard)
	if len(r.Points) < 5 {
		t.Fatalf("only %d precision points", len(r.Points))
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if first.Excluded < 0.9 {
		t.Errorf("precision at highest threshold %.3f, paper reports ≈ 1.0", first.Excluded)
	}
	if last.Excluded > 0.65 || last.Excluded < 0.3 {
		t.Errorf("precision floor %.3f, paper reports ≈ 0.48", last.Excluded)
	}
	if first.Excluded <= last.Excluded {
		t.Error("precision does not decline with threshold; the Figure 4 shape is lost")
	}
	// The included curve must sit at or below the excluded curve.
	for i, p := range r.Points {
		if p.Included > p.Excluded+1e-9 {
			t.Errorf("point %d: included precision above excluded", i)
		}
	}
}

func TestEnvFigure5Shape(t *testing.T) {
	// The core-coverage experiment needs enough hosts that the small
	// sub-cores are not degenerate singletons; build a dedicated
	// larger environment.
	cfg := testConfig()
	cfg.Hosts = 150000
	e, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	variants, err := e.RunFigure5(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 6 {
		t.Fatalf("%d variants, want 6 (100%%, 10%%, 1%%, 0.1%%, .it, random=|.it|)", len(variants))
	}
	avg := func(v CoreVariant) float64 {
		s := 0.0
		for _, p := range v.Points {
			s += p.Excluded
		}
		return s / float64(len(v.Points))
	}
	full, it := avg(variants[0]), avg(variants[4])
	if full <= it {
		t.Errorf("full core average precision %.3f not above .it core %.3f; coverage must matter", full, it)
	}
	// The paper's headline negative result for narrow coverage: a
	// broad random core of the SAME size beats the single-country one.
	sameSize := avg(variants[5])
	if it >= sameSize {
		t.Errorf(".it core %.3f should underperform the equal-size random core %.3f", it, sameSize)
	}
	// And the sub-cores decline gradually with size: 10%% ≥ 0.1%%.
	if avg(variants[1]) < avg(variants[3])-0.02 {
		t.Errorf("10%% core %.3f below 0.1%% core %.3f; size should help", avg(variants[1]), avg(variants[3]))
	}
}

func TestEnvAnomalyFix(t *testing.T) {
	e := env(t)
	r, err := e.RunAnomalyFix(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MemberRelBefore) == 0 {
		t.Fatal("no community members in T")
	}
	if r.MemberRelBefore[0] < 0.95 {
		t.Errorf("top community member m~ before fix %.3f, want ≈ 1", r.MemberRelBefore[0])
	}
	if r.MemberRelAfter[0] > 0.6 {
		t.Errorf("top community member m~ after fix %.3f, want a collapse (paper: 0.53)", r.MemberRelAfter[0])
	}
	if r.MeanShiftOthers > 0.1 {
		t.Errorf("other hosts shifted %.4f on average, paper reports 0.0298", r.MeanShiftOthers)
	}
}

func TestEnvFigure6(t *testing.T) {
	e := env(t)
	d, err := e.RunFigure6(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if d.PositiveExponent > -1 || d.PositiveExponent < -4.5 {
		t.Errorf("positive-tail exponent %.2f outside plausible band (paper -2.31)", d.PositiveExponent)
	}
	if d.MinMass >= 0 {
		t.Error("no negative masses in the distribution")
	}
}

func TestEnvAbsMass(t *testing.T) {
	e := env(t)
	r := e.RunAbsMass(io.Discard, 20)
	if len(r.Top) != 20 {
		t.Fatalf("top list has %d entries", len(r.Top))
	}
	// The Section 4.6 point: the top-absolute-mass list intermixes good
	// and spam; neither class may monopolize it completely.
	if r.SpamInTop == 0 || r.SpamInTop == len(r.Top) {
		t.Errorf("top-20 by absolute mass contains %d spam; expected an intermixed list", r.SpamInTop)
	}
}

func TestEnvExpired(t *testing.T) {
	e := env(t)
	missed, caught, err := e.RunExpired(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if missed == 0 {
		t.Error("no expired-domain spam missed; the class exists to be missed by the white-list estimator")
	}
	if caught < missed {
		t.Errorf("black-list evidence caught %d of %d; combining lists should help", caught, missed)
	}
}

func TestEnvScaling(t *testing.T) {
	e := env(t)
	r, err := e.RunScaling(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r.NormRatioUnscaled > 0.05 {
		t.Errorf("unscaled ‖p'‖/‖p‖ = %.4f, want the Section 3.5 collapse", r.NormRatioUnscaled)
	}
	if r.NormRatioScaled < 0.3 {
		t.Errorf("scaled ‖p'‖/‖p‖ = %.4f, want a meaningful fraction", r.NormRatioScaled)
	}
	if r.NearPageRankFracUnscaled < 0.5 {
		t.Errorf("unscaled estimates near PageRank for only %.1f%% of T; expected most", 100*r.NearPageRankFracUnscaled)
	}
}

func TestEnvSweep(t *testing.T) {
	e := env(t)
	rows := e.RunSweep(io.Discard)
	if len(rows) != 16 {
		t.Fatalf("%d sweep rows, want 16", len(rows))
	}
	// Candidates shrink as tau rises at fixed rho.
	for i := 1; i < len(rows); i++ {
		if rows[i].Rho == rows[i-1].Rho && rows[i].Candidates > rows[i-1].Candidates {
			t.Errorf("candidates grew from %d to %d as tau rose at rho=%v",
				rows[i-1].Candidates, rows[i].Candidates, rows[i].Rho)
		}
	}
}

func TestEnvCombined(t *testing.T) {
	e := env(t)
	rows, err := e.RunCombined(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d estimator rows, want 3", len(rows))
	}
	white, combined := rows[0], rows[2]
	if combined.ExpiredCaught < white.ExpiredCaught {
		t.Errorf("combined estimator catches %d expired vs white's %d; black-list evidence must not hurt",
			combined.ExpiredCaught, white.ExpiredCaught)
	}
}

func TestEnvBaselines(t *testing.T) {
	e := env(t)
	rows, err := e.RunBaselines(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d baseline rows, want 4", len(rows))
	}
	byName := map[string]BaselineResult{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	massRes := byName["spam mass (tau=0.75)"]
	if massRes.Precision < 0.4 || massRes.TargetRecall < 0.4 {
		t.Errorf("mass detection precision %.3f / target recall %.3f, want a strong detector", massRes.Precision, massRes.TargetRecall)
	}
	// Spam mass leads on the product of precision and target recall:
	// TrustRank trades precision for recall, degree outliers catch
	// boosters but not targets, SpamRank sits in between.
	massScore := massRes.Precision * massRes.TargetRecall
	for name, r := range byName {
		if name == massRes.Name {
			continue
		}
		if s := r.Precision * r.TargetRecall; s > massScore {
			t.Errorf("%s precision×recall %.3f beats spam mass %.3f", name, s, massScore)
		}
	}
	// The degree detector must miss the high-PageRank targets — the
	// paper's critique of purely structural baselines.
	if deg := byName["degree outliers"]; deg.TargetRecall > 0.15 {
		t.Errorf("degree outliers target recall %.3f; should be near zero", deg.TargetRecall)
	}
}

func TestEnvSolvers(t *testing.T) {
	e := env(t)
	rows, err := e.RunSolvers(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[1:] {
		if r.MaxDiff > 1e-6 {
			t.Errorf("%s diverges from Jacobi by %v", r.Name, r.MaxDiff)
		}
	}
	if rows[1].Iterations > rows[0].Iterations {
		t.Errorf("Gauss-Seidel (%d iters) slower than Jacobi (%d)", rows[1].Iterations, rows[0].Iterations)
	}
}

// TestPowerIterationVsJacobiDangling reconciles the eigenvector and
// linear formulations on dangling-heavy graphs. The stationary
// distribution of the dangling-reinjected chain differs from the
// linear-system solution exactly by a per-vector scale (Vigna's
// pseudorank correction); powerIteration applies it, so raw scores —
// not just normalized ones — must agree with Jacobi.
func TestPowerIterationVsJacobiDangling(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 5; trial++ {
		// Roughly a third of the nodes have no out-links.
		n := 200 + rng.Intn(400)
		b := graph.NewBuilder(n)
		for x := 0; x < n; x++ {
			if x%3 == 0 {
				continue
			}
			for i := 1 + rng.Intn(5); i > 0; i-- {
				b.AddEdge(graph.NodeID(x), graph.NodeID(rng.Intn(n)))
			}
		}
		g := b.Build()
		v := pagerank.UniformJump(n)
		cfg := pagerank.DefaultConfig()
		ja, err := pagerank.Jacobi(g, v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pw, _, err := powerIteration(g, v, cfg.Damping, cfg.Epsilon, cfg.MaxIter)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(ja.Scores, pw); d > 1e-9 {
			t.Errorf("trial %d: raw Jacobi vs power iteration differ by %v", trial, d)
		}
		// With a third of the nodes dangling the uncorrected scales
		// differ by ≈ c·D ≈ 20%, so raw agreement above is only possible
		// if the correction ran.
		if s := pw.Sum(); math.Abs(s-1) < 1e-6 {
			t.Errorf("trial %d: power-iteration scores sum to %v — still on the distribution scale, correction missing", trial, s)
		}
	}
}

func TestSectionWriter(t *testing.T) {
	var sb strings.Builder
	section(&sb, "title")
	if !strings.Contains(sb.String(), "=== title ===") {
		t.Errorf("section rendered %q", sb.String())
	}
}
