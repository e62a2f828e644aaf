package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"spammass/internal/baseline"
	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/pagerank"
	"spammass/internal/stats"
	"spammass/internal/trustrank"
)

// ScalingResult is the Section 3.5 ablation: what happens without the
// γ-scaling of the core-based jump vector.
type ScalingResult struct {
	// NormRatioUnscaled and NormRatioScaled are ‖p'‖/‖p‖ under the
	// plain v^Ṽ⁺ jump and the γ-scaled jump w.
	NormRatioUnscaled, NormRatioScaled float64
	// NearPageRankFracUnscaled is the fraction of T whose unscaled
	// estimate M̃ is within 1% of its PageRank — the "only a few nodes
	// have mass estimates differing from their PageRank scores"
	// failure mode.
	NearPageRankFracUnscaled float64
}

// RunScaling compares mass estimation with and without jump scaling.
func (e *Env) RunScaling(w io.Writer) (*ScalingResult, error) {
	section(w, "Ablation (Section 3.5): core jump scaling")
	plain, err := mass.EstimateFromCore(e.World.Graph, e.Core.Nodes, mass.Options{Solver: e.Cfg.Solver, Gamma: 0})
	if err != nil {
		return nil, err
	}
	r := &ScalingResult{
		NormRatioUnscaled: plain.TotalEstimatedGoodContribution() / plain.P.Norm1(),
		NormRatioScaled:   e.Est.TotalEstimatedGoodContribution() / e.Est.P.Norm1(),
	}
	near := 0
	for _, x := range e.T {
		if plain.P[x] > 0 && plain.Abs[x] > 0.99*plain.P[x] {
			near++
		}
	}
	r.NearPageRankFracUnscaled = float64(near) / float64(len(e.T))
	fmt.Fprintf(w, "‖p'‖/‖p‖ unscaled: %.4f  (collapse: the paper's ‖p'‖ ≪ ‖p‖)\n", r.NormRatioUnscaled)
	fmt.Fprintf(w, "‖p'‖/‖p‖ scaled:   %.4f  (γ = %.2f)\n", r.NormRatioScaled, e.Cfg.Gamma)
	fmt.Fprintf(w, "fraction of T with M~ within 1%% of PageRank when unscaled: %.1f%%\n", 100*r.NearPageRankFracUnscaled)
	return r, nil
}

// SweepResult holds detection counts over a (ρ, τ) grid.
type SweepResult struct {
	Rho, Tau   float64
	Candidates int
	Precision  float64 // ground-truth precision over all candidates
}

// RunSweep runs Algorithm 2 over a grid of thresholds, measuring
// candidate counts and ground-truth precision (the synthetic world
// lets us evaluate over all candidates, not just a sample).
func (e *Env) RunSweep(w io.Writer) []SweepResult {
	section(w, "Ablation: (rho, tau) threshold sweep, ground-truth precision")
	var out []SweepResult
	fmt.Fprintf(w, "%8s %8s %12s %10s\n", "rho", "tau", "candidates", "precision")
	for _, rho := range []float64{5, 10, 20, 50} {
		for _, tau := range []float64{0.5, 0.75, 0.9, 0.98} {
			cands := mass.Detect(e.Est, mass.DetectConfig{RelMassThreshold: tau, ScaledPageRankThreshold: rho})
			spam := 0
			for _, c := range cands {
				if e.World.IsSpam(c.Node) {
					spam++
				}
			}
			r := SweepResult{Rho: rho, Tau: tau, Candidates: len(cands)}
			if len(cands) > 0 {
				r.Precision = float64(spam) / float64(len(cands))
			}
			out = append(out, r)
			fmt.Fprintf(w, "%8.1f %8.2f %12d %10.3f\n", rho, tau, r.Candidates, r.Precision)
		}
	}
	return out
}

// CombinedResult compares white-list, black-list, and combined
// estimators on ground truth (Section 3.4's combination schemes).
type CombinedResult struct {
	Name       string
	Candidates int
	Precision  float64
	// ExpiredCaught counts expired-domain spam detected in T — the
	// class the white-list estimator misses by design.
	ExpiredCaught int
}

// RunCombined evaluates M̃, M̂, and (M̃+M̂)/2 detection at τ = 0.75.
func (e *Env) RunCombined(w io.Writer) ([]CombinedResult, error) {
	section(w, "Ablation (Section 3.4): combining white-list and black-list estimates")
	spam := e.World.SpamNodes()
	// The search engine knows a tenth of the spam (a realistic
	// black list: incomplete and biased toward reported farms).
	known := make([]graph.NodeID, 0, len(spam)/10)
	for i, x := range spam {
		if i%10 == 0 {
			known = append(known, x)
		}
	}
	black, err := mass.EstimateFromBlacklist(e.World.Graph, known, 1-e.Cfg.Gamma, mass.Options{Solver: e.Cfg.Solver})
	if err != nil {
		return nil, err
	}
	lambda := mass.CoreWeightLambda(e.Core.Size(), len(known), e.World.Graph.NumNodes(), e.Cfg.Gamma)
	combined, err := mass.WeightedCombine(e.Est, black, lambda)
	if err != nil {
		return nil, err
	}
	cfg := mass.DetectConfig{RelMassThreshold: 0.75, ScaledPageRankThreshold: e.Cfg.Rho}
	expired := make(map[graph.NodeID]bool)
	for _, x := range e.World.ExpiredSpam {
		expired[x] = true
	}
	var out []CombinedResult
	fmt.Fprintf(w, "(black list: %d known spam hosts; lambda = %.3f)\n", len(known), lambda)
	fmt.Fprintf(w, "%-14s %12s %10s %14s\n", "estimator", "candidates", "precision", "expired found")
	for _, v := range []struct {
		name string
		est  *mass.Estimates
	}{{"white (M~)", e.Est}, {"black (M^)", black}, {"combined", combined}} {
		cands := mass.Detect(v.est, cfg)
		spamCount, expiredCount := 0, 0
		for _, c := range cands {
			if e.World.IsSpam(c.Node) {
				spamCount++
			}
			if expired[c.Node] {
				expiredCount++
			}
		}
		r := CombinedResult{Name: v.name, Candidates: len(cands), ExpiredCaught: expiredCount}
		if len(cands) > 0 {
			r.Precision = float64(spamCount) / float64(len(cands))
		}
		out = append(out, r)
		fmt.Fprintf(w, "%-14s %12d %10.3f %14d\n", r.Name, r.Candidates, r.Precision, r.ExpiredCaught)
	}
	return out, nil
}

// BaselineResult compares detectors on ground truth. Flagged counts
// every node a detector marks; Precision is the spam fraction among
// them; TargetRecall is the fraction of spam hosts in T — the
// high-PageRank boosting beneficiaries the paper targets — that the
// detector catches.
type BaselineResult struct {
	Name         string
	Flagged      int
	Precision    float64
	TargetRecall float64
}

// RunBaselines compares mass-based detection with TrustRank demotion
// and the related-work baselines of Section 5 on the same world. The
// expected shape: spam mass leads on target recall at high precision;
// TrustRank demotes whole low-trust regions (high recall, low
// precision); the Fetterly-style degree detector nails the
// machine-generated boosting nodes (high precision) but almost never
// the targets themselves; the SpamRank-style detector sits in between.
func (e *Env) RunBaselines(w io.Writer) ([]BaselineResult, error) {
	section(w, "Comparison: mass detection vs TrustRank demotion vs related-work baselines")
	spamInT := make(map[graph.NodeID]bool)
	for _, x := range e.T {
		if e.World.IsSpam(x) {
			spamInT[x] = true
		}
	}
	score := func(name string, flagged []graph.NodeID) BaselineResult {
		r := BaselineResult{Name: name, Flagged: len(flagged)}
		spam, targets := 0, 0
		for _, x := range flagged {
			if e.World.IsSpam(x) {
				spam++
			}
			if spamInT[x] {
				targets++
			}
		}
		if len(flagged) > 0 {
			r.Precision = float64(spam) / float64(len(flagged))
		}
		if len(spamInT) > 0 {
			r.TargetRecall = float64(targets) / float64(len(spamInT))
		}
		return r
	}

	var out []BaselineResult

	// 1. Spam mass (Algorithm 2, τ = 0.75).
	var massFlagged []graph.NodeID
	for _, c := range mass.Detect(e.Est, mass.DetectConfig{RelMassThreshold: 0.75, ScaledPageRankThreshold: e.Cfg.Rho}) {
		massFlagged = append(massFlagged, c.Node)
	}
	out = append(out, score("spam mass (tau=0.75)", massFlagged))

	// 2. TrustRank demotion: seeds from the directory (small, highly
	// selective), flag T members in the bottom trust tier.
	seeds := e.World.DirectoryMembers
	trust, err := trustrank.ComputeOn(e.Engine(), seeds)
	if err != nil {
		return nil, err
	}
	// Threshold: trust below the median trust of T members.
	var trustInT []float64
	for _, x := range e.T {
		trustInT = append(trustInT, trust[x])
	}
	medianTrust := median(trustInT)
	var demoted []graph.NodeID
	for _, x := range e.T {
		if trust[x] < medianTrust {
			demoted = append(demoted, x)
		}
	}
	out = append(out, score("trustrank demotion", demoted))

	// 3. Degree-distribution outliers (Fetterly et al.): out-degree
	// mode, looking for degrees hit far more often than the fitted
	// power law predicts — the signature of template-stamped boosting
	// pages that all carry the identical number of links.
	degFlagged, err := baseline.DegreeOutliers(e.World.Graph, baseline.DegreeOutlierConfig{
		In: false, MinDegree: 3, OutlierFactor: 3, MinCount: 30,
	})
	if err != nil {
		return nil, err
	}
	out = append(out, score("degree outliers", degFlagged))

	// 4. In-neighbor PageRank deviation (Benczúr et al.). Flag the
	// same number of hosts as the mass detector for comparability.
	spamRank, err := baseline.SpamRankScores(e.World.Graph, e.Est.P, baseline.DefaultSpamRankConfig())
	if err != nil {
		return nil, err
	}
	srFlagged := baseline.TopSpamRank(spamRank, len(massFlagged))
	out = append(out, score("spamrank-style", srFlagged))

	fmt.Fprintf(w, "%-22s %10s %10s %14s\n", "detector", "flagged", "precision", "target recall")
	for _, r := range out {
		fmt.Fprintf(w, "%-22s %10d %10.3f %14.3f\n", r.Name, r.Flagged, r.Precision, r.TargetRecall)
	}

	// Threshold-free comparison over T: AUC of each detector's score
	// at ranking spam above good. Degree outliers are binary and have
	// no ranking, so they are omitted here.
	labels := make([]bool, 0, len(e.T))
	var massScores, trustScores, srScores []float64
	for _, x := range e.T {
		labels = append(labels, e.World.IsSpam(x))
		massScores = append(massScores, e.Est.Rel[x])
		trustScores = append(trustScores, -trust[x]) // low trust = suspicious
		srScores = append(srScores, spamRank[x])
	}
	fmt.Fprintf(w, "AUC over T (spam ranked above good):")
	for _, v := range []struct {
		name   string
		scores []float64
	}{{"spam mass", massScores}, {"trustrank", trustScores}, {"spamrank", srScores}} {
		auc, err := stats.AUC(v.scores, labels)
		if err != nil {
			return nil, fmt.Errorf("experiments: AUC for %s: %w", v.name, err)
		}
		fmt.Fprintf(w, "  %s %.3f", v.name, auc)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "(spam mass detects the boosted targets; TrustRank demotes whole low-trust")
	fmt.Fprintln(w, " regions; degree outliers catch uniform boosting nodes but not the targets)")
	return out, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// SolverResult compares the linear solvers.
type SolverResult struct {
	Name       string
	Iterations int
	MaxDiff    float64 // against Jacobi, after normalization
}

// RunSolvers cross-validates three solvers of Section 2.2 on the world
// graph and reports their iteration counts: Jacobi (Algorithm 1, on
// the shared engine) against in-place Gauss-Seidel sweeps and the
// power iteration of the eigenvector formulation, both run by the
// single-column loops below.
func (e *Env) RunSolvers(w io.Writer) ([]SolverResult, error) {
	section(w, "Ablation: linear PageRank solver comparison")
	g := e.World.Graph
	v := pagerank.UniformJump(g.NumNodes())
	cfg := e.Cfg.Solver
	cfg.Algorithm = pagerank.AlgoJacobi
	ja, err := e.Engine().SolveConfig(v, cfg)
	if err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	gs, gsIters, err := gaussSeidel(g, v, cfg.Damping, cfg.Epsilon, cfg.MaxIter)
	if err != nil {
		return nil, err
	}
	pw, pwIters, err := powerIteration(g, v, cfg.Damping, cfg.Epsilon, cfg.MaxIter)
	if err != nil {
		return nil, err
	}
	jn := ja.Scores.Normalized()
	out := []SolverResult{
		{Name: "jacobi", Iterations: ja.Iterations},
		{Name: "gauss-seidel", Iterations: gsIters, MaxDiff: maxAbsDiff(jn, gs.Normalized())},
		{Name: "power-iteration", Iterations: pwIters, MaxDiff: maxAbsDiff(jn, pw.Normalized())},
	}
	for _, r := range out {
		fmt.Fprintf(w, "%-16s %4d iterations, max normalized diff vs jacobi %.2e\n", r.Name, r.Iterations, r.MaxDiff)
	}
	return out, nil
}

// invOutDegrees returns 1/out(x) per node, 0 for dangling nodes.
func invOutDegrees(g *graph.Graph) []float64 {
	inv := make([]float64, g.NumNodes())
	for x := range inv {
		if d := g.OutDegree(graph.NodeID(x)); d > 0 {
			inv[x] = 1 / float64(d)
		}
	}
	return inv
}

// gaussSeidel solves (I − cTᵀ)p = (1−c)v with in-place sweeps in node
// order, each using the scores already updated in the same sweep,
// until the sweep's L1 step falls below eps. It returns the scores and
// the number of sweeps.
func gaussSeidel(g *graph.Graph, v pagerank.Vector, c, eps float64, maxIter int) (pagerank.Vector, int, error) {
	inv := invOutDegrees(g)
	p := v.Clone()
	for it := 1; it <= maxIter; it++ {
		step := 0.0
		for y := range p {
			sum := 0.0
			for _, x := range g.InNeighbors(graph.NodeID(y)) {
				sum += p[x] * inv[x]
			}
			nv := c*sum + (1-c)*v[y]
			step += math.Abs(nv - p[y])
			p[y] = nv
		}
		if step < eps {
			return p, it, nil
		}
	}
	return nil, maxIter, fmt.Errorf("experiments: gauss-seidel did not converge in %d iterations", maxIter)
}

// powerIteration iterates the augmented chain T″ = cT′ + (1−c)·1·vᵀ,
// T′ = T + dvᵀ, of Section 2.2 from p = v (‖v‖₁ = 1): each step
// reinjects the mass c·dᵀp sitting on dangling nodes through v. Its
// fixpoint is the stationary distribution, which satisfies
// p = cTᵀp + (c·dᵀp + 1−c)·v. The function returns it divided by
// (c·dᵀp + 1−c)/(1−c) (Vigna's pseudorank rescale): the solution of
// (I − cTᵀ)p = (1−c)v, so its raw scores compare with Jacobi's.
func powerIteration(g *graph.Graph, v pagerank.Vector, c, eps float64, maxIter int) (pagerank.Vector, int, error) {
	inv := invOutDegrees(g)
	danglingMass := func(p pagerank.Vector) float64 {
		d := 0.0
		for x, w := range inv {
			if w == 0 {
				d += p[x]
			}
		}
		return d
	}
	cur, next := v.Clone(), make(pagerank.Vector, len(v))
	for it := 1; it <= maxIter; it++ {
		coef := (1 - c) + c*danglingMass(cur)
		step := 0.0
		for y := range next {
			sum := 0.0
			for _, x := range g.InNeighbors(graph.NodeID(y)) {
				sum += cur[x] * inv[x]
			}
			next[y] = c*sum + coef*v[y]
			step += math.Abs(next[y] - cur[y])
		}
		cur, next = next, cur
		if step < eps {
			return cur.Scale((1 - c) / ((1 - c) + c*danglingMass(cur))), it, nil
		}
	}
	return nil, maxIter, fmt.Errorf("experiments: power iteration did not converge in %d iterations", maxIter)
}

func maxAbsDiff(a, b pagerank.Vector) float64 {
	m := 0.0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
