// Package mass implements the paper's primary contribution: spam mass
// (Section 3) and the mass-based link-spam detection algorithm
// (Algorithm 2).
//
// The absolute spam mass of a node x is the PageRank contribution x
// receives from spam nodes, M_x = q_x^{V⁻}; the relative spam mass is
// the fraction m_x = M_x / p_x. With only a good core Ṽ⁺ available,
// the masses are estimated from two PageRank vectors (Definition 3):
//
//	M̃ = p − p'   and   m̃ = 1 − p'/p
//
// where p = PR(v) uses the uniform random jump and p' = PR(w) uses a
// jump restricted to the good core, scaled so that ‖w‖ = γ, the
// estimated fraction of good nodes on the web (Section 3.5).
//
// All estimation runs on a pagerank.Engine; an Estimator binds the
// engine to one graph so repeated estimations (core variants, warm
// recomputes, γ sweeps) reuse the cached graph state, and the two
// solves of Definition 3 share one adjacency sweep per iteration via
// the engine's batched SolveMany.
//
// A solve that hits MaxIter without meeting Epsilon surfaces as a
// pagerank.ErrNotConverged; a truncated p' can therefore never skew
// M̃ = p − p' silently. Callers that deliberately accept truncated
// solves opt in via Options.Solver.AllowTruncated.
package mass

import (
	"fmt"
	"math"
	"sort"
	"time"

	"spammass/internal/graph"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
)

// Options configures mass estimation.
type Options struct {
	// Solver configures the underlying linear PageRank computations.
	Solver pagerank.Config
	// Gamma is the estimated fraction γ of good nodes on the web; the
	// core-based jump vector w is scaled to ‖w‖ = γ (Section 3.5).
	// The paper's experiments use γ = 0.85, from the conservative
	// estimate that at least 15% of hosts are spam.
	//
	// If Gamma is zero the jump vector is NOT scaled: each core node
	// receives weight 1/n, the plain v^Ṽ⁺ of Definition 3. (This is
	// the setting of the Table 1 example; on real-scale graphs it
	// suffers the ‖p'‖ ≪ ‖p‖ problem described in Section 3.5.)
	Gamma float64
}

// DefaultOptions returns the options used in the paper's experiments.
func DefaultOptions() Options {
	return Options{Solver: pagerank.DefaultConfig(), Gamma: 0.85}
}

// Estimates holds the outcome of spam-mass estimation for every node.
// All vectors are in unscaled PageRank units; use Scaled reporting
// helpers (or pagerank.Vector.Scaled) for the paper's n/(1−c) scaling.
//
// Every constructor clones its inputs, so the vectors of an Estimates
// never alias caller-owned vectors or those of another Estimates:
// mutating one estimate in place (Vector.Scale/Add/Sub) cannot corrupt
// its siblings.
type Estimates struct {
	// P is the regular PageRank vector p = PR(v).
	P pagerank.Vector
	// PCore is the core-based PageRank vector p' = PR(w).
	PCore pagerank.Vector
	// Abs is the estimated absolute spam mass M̃ = p − p'. Entries can
	// be negative: a negative mass indicates a node that is either in
	// the good core itself or heavily supported by it (Section 3.5).
	Abs pagerank.Vector
	// Rel is the estimated relative spam mass m̃ = 1 − p'/p.
	Rel pagerank.Vector
	// Damping is the damping factor used, kept for scaled reporting.
	Damping float64
	// SolveStats, when the estimate came from an Estimator, holds the
	// telemetry of the batched solve that produced P and PCore.
	SolveStats *pagerank.SolveStats
}

// N returns the number of nodes covered by the estimates.
func (e *Estimates) N() int { return len(e.P) }

// ScaledPageRank returns p_x scaled by n/(1−c), the unit in which the
// paper reports scores (a node with no inlinks scores 1).
func (e *Estimates) ScaledPageRank(x graph.NodeID) float64 {
	return e.P[x] * float64(e.N()) / (1 - e.Damping)
}

// ScaledPCore returns p'_x scaled by n/(1−c).
func (e *Estimates) ScaledPCore(x graph.NodeID) float64 {
	return e.PCore[x] * float64(e.N()) / (1 - e.Damping)
}

// ScaledAbsMass returns M̃_x scaled by n/(1−c).
func (e *Estimates) ScaledAbsMass(x graph.NodeID) float64 {
	return e.Abs[x] * float64(e.N()) / (1 - e.Damping)
}

// Estimator binds mass estimation to a reusable pagerank.Engine. Use
// it instead of the free functions when estimating repeatedly on one
// graph: the inverse out-degrees, dangling list, solver buffers, and
// worker pool are built once, and batched estimations share adjacency
// sweeps. Close releases the engine's worker pool.
type Estimator struct {
	g    *graph.Graph
	eng  *pagerank.Engine
	opts Options
}

// NewEstimator validates opts once — Gamma here, the solver settings
// in pagerank.NewEngine — and builds the engine.
func NewEstimator(g *graph.Graph, opts Options) (*Estimator, error) {
	if err := validateFraction("gamma", opts.Gamma); err != nil {
		return nil, err
	}
	eng, err := pagerank.NewEngine(g, opts.Solver)
	if err != nil {
		return nil, err
	}
	opts.Solver = eng.Config()
	return &Estimator{g: g, eng: eng, opts: opts}, nil
}

// Engine exposes the underlying solver engine (e.g. for custom
// batched solves alongside estimation).
func (es *Estimator) Engine() *pagerank.Engine { return es.eng }

// Close releases the engine's worker pool.
func (es *Estimator) Close() { es.eng.Close() }

func (es *Estimator) damping() float64 { return es.opts.Solver.Damping }

// obsCtx returns the observability context the estimator was built
// with (nil when none was attached to Options.Solver.Obs).
func (es *Estimator) obsCtx() *obs.Context { return es.opts.Solver.Obs }

// annotateSolve attaches a logical per-vector solve span to sp. The p
// and p' solves physically share one batched sweep, so each logical
// span covers the batch window and carries its vector's own
// convergence diagnostics.
func annotateSolve(sp *obs.Span, name string, start time.Time, r *pagerank.Result) {
	if sp == nil || r == nil {
		return
	}
	d := time.Duration(0)
	if r.Stats != nil {
		d = r.Stats.WallTime
	}
	c := sp.ChildWindow(name, start, d)
	c.SetAttr("batched", true)
	c.SetAttr("iterations", r.Iterations)
	c.SetAttr("residual", r.Residual)
	c.SetAttr("converged", r.Converged)
}

// coreJump builds the jump vector for a core under fraction frac:
// ‖w‖ = frac when frac > 0, weight 1/n per core node when frac == 0.
// Fraction ranges are validated by the Estimator constructor (γ) or
// the blacklist entry point (β); this helper assumes a valid frac.
func coreJump(n int, core []graph.NodeID, frac float64) pagerank.Vector {
	if frac > 0 {
		return pagerank.ScaledCoreJump(n, core, frac)
	}
	return pagerank.CoreJump(n, core, 1/float64(n))
}

// validateFraction rejects a fraction outside [0,1]; the test is
// written so that NaN, which compares false to everything, fails it.
func validateFraction(name string, v float64) error {
	if !(v >= 0 && v <= 1) {
		return fmt.Errorf("mass: %s %v outside [0,1]", name, v)
	}
	return nil
}

// EstimateFromCore runs the two PageRank computations of Section 3.4
// as one batched solve — the p = PR(v) and p' = PR(w) sweeps share a
// single traversal of the in-neighbor lists per iteration — and
// derives the absolute and relative mass estimates of every node.
func (es *Estimator) EstimateFromCore(core []graph.NodeID) (*Estimates, error) {
	return es.estimateFromCore(core, nil)
}

// estimateFromCore is the one body of EstimateFromCore and
// EstimateFromCoreWarm: a nil warm start solves cold, under the
// mass.estimate_from_core span; a warm one seeds the batch under
// mass.estimate_from_core_warm and also counts a warm estimation.
func (es *Estimator) estimateFromCore(core []graph.NodeID, warm *WarmStart) (*Estimates, error) {
	if err := validateCore(es.g, core); err != nil {
		return nil, err
	}
	n := es.g.NumNodes()
	cfg := es.opts.Solver
	span, solves := "mass.estimate_from_core", "batched PageRank solves"
	if warm != nil {
		if len(warm.P) != n || len(warm.PCore) != n {
			return nil, fmt.Errorf("mass: warm start covers %d/%d nodes, graph has %d", len(warm.P), len(warm.PCore), n)
		}
		cfg.WarmStarts = []pagerank.Vector{warm.P, warm.PCore}
		span, solves = "mass.estimate_from_core_warm", "warm batched PageRank solves"
	}
	octx := es.obsCtx()
	sp := octx.Span(span)
	defer sp.End()
	if sp != nil {
		sp.SetAttr("core_size", len(core))
		sp.SetAttr("gamma", es.opts.Gamma)
	}
	cfg.Obs = octx.In(sp)
	solveStart := time.Now()
	rs, err := es.eng.SolveManyConfig([]pagerank.Vector{
		pagerank.UniformJump(n),
		coreJump(n, core, es.opts.Gamma),
	}, cfg)
	if err != nil {
		return nil, fmt.Errorf("mass: %s: %w", solves, err)
	}
	annotateSolve(sp, "solve.p", solveStart, rs[0])
	annotateSolve(sp, "solve.p_core", solveStart, rs[1])
	dsp := cfg.Obs.Span("mass.derive")
	e := Derive(rs[0].Scores, rs[1].Scores, es.damping())
	dsp.End()
	octx.Counter("mass.estimations_total").Inc()
	if warm != nil {
		octx.Counter("mass.warm_estimations_total").Inc()
	}
	e.SolveStats = rs[0].Stats
	return e, nil
}

// Recompute derives fresh estimates for an updated good core, reusing
// the previous estimates: the regular PageRank vector is unchanged and
// the previous core-based vector warm-starts the new solve, so a small
// core edit (the Section 4.4.2 anomaly fix, or incremental core growth
// per Section 4.5) converges in a fraction of the cold iterations.
func (es *Estimator) Recompute(prev *Estimates, core []graph.NodeID) (*Estimates, error) {
	ests, err := es.RecomputeMany(prev, [][]graph.NodeID{core})
	if err != nil {
		return nil, err
	}
	return ests[0], nil
}

// RecomputeMany is Recompute for several core variants at once: all
// core-based solves are batched through one SolveMany, sharing one
// adjacency sweep per iteration, and each starts from prev.PCore. This
// is the workhorse of the core-size and coverage experiments (Section
// 4.5).
func (es *Estimator) RecomputeMany(prev *Estimates, cores [][]graph.NodeID) ([]*Estimates, error) {
	if prev.N() != es.g.NumNodes() {
		return nil, fmt.Errorf("mass: previous estimates cover %d nodes, graph has %d", prev.N(), es.g.NumNodes())
	}
	octx := es.obsCtx()
	sp := octx.Span("mass.recompute")
	defer sp.End()
	sp.SetAttr("cores", len(cores))
	n := es.g.NumNodes()
	ws := make([]pagerank.Vector, len(cores))
	seeds := make([]pagerank.Vector, len(cores))
	for i, core := range cores {
		if err := validateCore(es.g, core); err != nil {
			return nil, err
		}
		ws[i] = coreJump(n, core, es.opts.Gamma)
		seeds[i] = prev.PCore
	}
	cfg := es.opts.Solver
	cfg.WarmStarts = seeds
	cfg.Obs = octx.In(sp)
	rs, err := es.eng.SolveManyConfig(ws, cfg)
	if err != nil {
		return nil, fmt.Errorf("mass: warm core-based PageRank: %w", err)
	}
	dsp := cfg.Obs.Span("mass.derive")
	out := make([]*Estimates, len(rs))
	for i, r := range rs {
		out[i] = Derive(prev.P, r.Scores, prev.Damping)
		out[i].SolveStats = r.Stats
	}
	dsp.End()
	return out, nil
}

// EstimateFromBlacklist estimates absolute mass from a known spam
// subset Ṽ⁻ as M̂ = PR(v^{Ṽ⁻}) (Section 3.4). If beta > 0 the jump
// vector is scaled to ‖·‖ = beta (the estimated fraction of spam
// nodes), symmetric to the γ-scaling of the good-core estimator. The
// regular and blacklist solves are batched into one engine sweep.
func (es *Estimator) EstimateFromBlacklist(spamCore []graph.NodeID, beta float64) (*Estimates, error) {
	if err := validateCore(es.g, spamCore); err != nil {
		return nil, err
	}
	if err := validateFraction("beta", beta); err != nil {
		return nil, err
	}
	sp := es.obsCtx().Span("mass.estimate_from_blacklist")
	defer sp.End()
	if sp != nil {
		sp.SetAttr("core_size", len(spamCore))
		sp.SetAttr("beta", beta)
	}
	return es.contribution(sp, coreJump(es.g.NumNodes(), spamCore, beta))
}

// Exact computes the actual (not estimated) spam mass M = q^{V⁻} and
// m = M/p, given the ground-truth set of spam nodes, via Theorem 2:
// the contribution of V⁻ is the PageRank for the jump vector v^{V⁻}.
// Only synthetic settings (and Table 1) have this luxury; it is the
// reference the estimators are judged against in tests.
func (es *Estimator) Exact(spam []graph.NodeID) (*Estimates, error) {
	for _, x := range spam {
		if int(x) >= es.g.NumNodes() {
			return nil, fmt.Errorf("mass: spam node %d outside graph of %d nodes", x, es.g.NumNodes())
		}
	}
	sp := es.obsCtx().Span("mass.exact")
	defer sp.End()
	sp.SetAttr("spam_nodes", len(spam))
	return es.contribution(sp, pagerank.JumpRestriction(pagerank.UniformJump(es.g.NumNodes()), spam))
}

// contribution is the one body of EstimateFromBlacklist and Exact: it
// solves p = PR(v) beside one contribution column q = PR(jump), under
// sp, and reads the masses straight off q: M = q, m = q/p, and PCore =
// p − q, the good contribution q^{V⁺}.
func (es *Estimator) contribution(sp *obs.Span, jump pagerank.Vector) (*Estimates, error) {
	cfg := es.opts.Solver
	cfg.Obs = es.obsCtx().In(sp)
	n := es.g.NumNodes()
	rs, err := es.eng.SolveManyConfig([]pagerank.Vector{pagerank.UniformJump(n), jump}, cfg)
	if err != nil {
		return nil, fmt.Errorf("mass: batched PageRank solves: %w", err)
	}
	p, q := rs[0].Scores, rs[1].Scores
	e := &Estimates{
		P:          p.Clone(),
		PCore:      p.Clone().Sub(q),
		Abs:        q.Clone(),
		Rel:        make(pagerank.Vector, n),
		Damping:    es.damping(),
		SolveStats: rs[0].Stats,
	}
	for x := range e.Rel {
		if e.P[x] > 0 {
			e.Rel[x] = q[x] / e.P[x]
		}
	}
	return e, nil
}

// EstimateFromCore runs the two PageRank computations of Section 3.4
// and derives the absolute and relative mass estimates of every node.
// It is a convenience wrapper constructing a throwaway Estimator; hold
// an Estimator for repeated estimation on one graph.
func EstimateFromCore(g *graph.Graph, core []graph.NodeID, opts Options) (*Estimates, error) {
	es, err := NewEstimator(g, opts)
	if err != nil {
		return nil, err
	}
	defer es.Close()
	return es.EstimateFromCore(core)
}

// Exact computes the actual spam mass from ground truth; see
// Estimator.Exact.
func Exact(g *graph.Graph, spam []graph.NodeID, opts Options) (*Estimates, error) {
	es, err := NewEstimator(g, opts)
	if err != nil {
		return nil, err
	}
	defer es.Close()
	return es.Exact(spam)
}

// EstimateFromBlacklist estimates absolute mass from a known spam
// subset; see Estimator.EstimateFromBlacklist.
func EstimateFromBlacklist(g *graph.Graph, spamCore []graph.NodeID, beta float64, opts Options) (*Estimates, error) {
	es, err := NewEstimator(g, opts)
	if err != nil {
		return nil, err
	}
	defer es.Close()
	return es.EstimateFromBlacklist(spamCore, beta)
}

// Derive computes mass estimates from two already-computed PageRank
// vectors, per Definition 3. It is useful when p is shared across many
// core variants (e.g. the core-size experiment of Section 4.5). The
// inputs are cloned: the returned Estimates owns all its vectors.
func Derive(p, pCore pagerank.Vector, c float64) *Estimates {
	e := &Estimates{
		P:       p.Clone(),
		PCore:   pCore.Clone(),
		Abs:     p.Clone().Sub(pCore),
		Rel:     make(pagerank.Vector, len(p)),
		Damping: c,
	}
	for x := range p {
		if p[x] > 0 {
			e.Rel[x] = (p[x] - pCore[x]) / p[x]
		}
	}
	return e
}

func validateCore(g *graph.Graph, core []graph.NodeID) error {
	if len(core) == 0 {
		return fmt.Errorf("mass: empty good core")
	}
	seen := make(map[graph.NodeID]bool, len(core))
	for _, x := range core {
		if int(x) >= g.NumNodes() {
			return fmt.Errorf("mass: core node %d outside graph of %d nodes", x, g.NumNodes())
		}
		if seen[x] {
			return fmt.Errorf("mass: duplicate core node %d", x)
		}
		seen[x] = true
	}
	return nil
}

// Combine averages a white-list estimate M̃ and a black-list estimate
// M̂ into (M̃ + M̂)/2, the simple combination scheme of Section 3.4,
// recomputing the relative masses from the combined absolute mass.
func Combine(white, black *Estimates) (*Estimates, error) {
	return WeightedCombine(white, black, 0.5)
}

// WeightedCombine forms a weighted average λ·M̃ + (1−λ)·M̂, the more
// sophisticated combination Section 3.4 suggests, where λ would depend
// on the relative sizes of Ṽ⁺ and Ṽ⁻ with respect to the estimated
// sizes of V⁺ and V⁻. The result owns its vectors: nothing is shared
// with white or black.
func WeightedCombine(white, black *Estimates, lambda float64) (*Estimates, error) {
	if white.N() != black.N() {
		return nil, fmt.Errorf("mass: combining estimates over %d and %d nodes", white.N(), black.N())
	}
	if err := validateFraction("weight", lambda); err != nil {
		return nil, err
	}
	n := white.N()
	e := &Estimates{
		P:       white.P.Clone(),
		PCore:   make(pagerank.Vector, n),
		Abs:     make(pagerank.Vector, n),
		Rel:     make(pagerank.Vector, n),
		Damping: white.Damping,
	}
	for x := 0; x < n; x++ {
		e.Abs[x] = lambda*white.Abs[x] + (1-lambda)*black.Abs[x]
		e.PCore[x] = e.P[x] - e.Abs[x]
		if e.P[x] > 0 {
			e.Rel[x] = e.Abs[x] / e.P[x]
		}
	}
	return e, nil
}

// CoreWeightLambda derives the λ for WeightedCombine from the sizes of
// the labeled cores relative to the estimated population sizes: the
// white-list weight grows with the coverage |Ṽ⁺|/(γn) relative to the
// black-list coverage |Ṽ⁻|/((1−γ)n).
func CoreWeightLambda(goodCoreSize, spamCoreSize, n int, gamma float64) float64 {
	if n == 0 || gamma <= 0 || gamma >= 1 {
		return 0.5
	}
	wCov := float64(goodCoreSize) / (gamma * float64(n))
	bCov := float64(spamCoreSize) / ((1 - gamma) * float64(n))
	if wCov+bCov == 0 {
		return 0.5
	}
	return wCov / (wCov + bCov)
}

// TotalEstimatedGoodContribution returns ‖p'‖₁: Section 3.5 diagnoses
// the unscaled-core failure mode by ‖p'‖ ≪ ‖p‖.
func (e *Estimates) TotalEstimatedGoodContribution() float64 { return e.PCore.Norm1() }

// RelMassOrNaN returns m̃_x, or NaN for nodes with zero PageRank under
// a non-uniform jump vector. The guard is written `!(p > 0)` rather
// than `p <= 0` so a NaN PageRank entry (which compares false to
// everything) also yields NaN instead of a meaningless stored zero.
func (e *Estimates) RelMassOrNaN(x graph.NodeID) float64 {
	if !(e.P[x] > 0) {
		return math.NaN()
	}
	return e.Rel[x]
}

// RecordFor renders one node's detection outcome as a detection record,
// labeled per Algorithm 2: spam when the node crosses both thresholds
// (scaled PageRank ≥ ρ and m̃ ≥ τ), good otherwise — including nodes
// below ρ, which Algorithm 2 never examines and therefore never labels
// spam. name may be empty. This is the single-node lookup surface
// shared by Records and the spammass -host flag; spamserver's records
// are built from the same Estimates methods and DetectConfig.Label.
func RecordFor(e *Estimates, x graph.NodeID, dcfg DetectConfig, name string) obs.DetectionRecord {
	p := e.ScaledPageRank(x)
	return obs.DetectionRecord{
		Node:    int64(x),
		Host:    name,
		P:       p,
		PCore:   e.ScaledPCore(x),
		AbsMass: e.ScaledAbsMass(x),
		RelMass: e.Rel[x],
		Label:   dcfg.Label(p, e.Rel[x]),
	}
}

// Label is Algorithm 2's label for a node of scaled PageRank p and
// relative mass rel: spam when it crosses both thresholds.
func (c DetectConfig) Label(p, rel float64) string {
	if p >= c.ScaledPageRankThreshold && rel >= c.RelMassThreshold {
		return obs.LabelSpam
	}
	return obs.LabelGood
}

// Records renders the detection outcome of every node in T (scaled
// PageRank ≥ ρ) as detection records, sorted by decreasing relative mass,
// labeled per Algorithm 2. names, when non-nil, supplies the host
// names. This is the row source of the spammass -json output.
func Records(e *Estimates, dcfg DetectConfig, names []string) []obs.DetectionRecord {
	var out []obs.DetectionRecord
	for x := 0; x < e.N(); x++ {
		id := graph.NodeID(x)
		if e.ScaledPageRank(id) < dcfg.ScaledPageRankThreshold {
			continue
		}
		name := ""
		if names != nil {
			name = names[x]
		}
		out = append(out, RecordFor(e, id, dcfg, name))
	}
	sort.Slice(out, func(i, j int) bool {
		// lint:ignore floatcmp exact tie-break keeps the record order a strict weak ordering
		if out[i].RelMass != out[j].RelMass {
			return out[i].RelMass > out[j].RelMass
		}
		// lint:ignore floatcmp exact tie-break keeps the record order a strict weak ordering
		if out[i].P != out[j].P {
			return out[i].P > out[j].P
		}
		return out[i].Node < out[j].Node
	})
	return out
}
