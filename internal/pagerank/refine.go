package pagerank

import (
	"fmt"
	"math"

	"spammass/internal/graph"
)

// refineBudgetSweeps bounds the total work Refine may spend, measured
// in full-sweep equivalents (one sweep ≈ m+n element touches). Past
// the budget Refine returns the partially repaired iterate and lets
// the solver finish the job; the bound keeps a badly perturbed warm
// start from costing more than the cold solve it is meant to replace.
const refineBudgetSweeps = 12

// RefineStats reports what a Refine call did.
type RefineStats struct {
	// Pushes is the number of Gauss-Southwell single-node relaxations.
	Pushes int64
	// Scans is the number of full passes over the residual vector used
	// to (re)build the push worklist.
	Scans int
	// InitialResidual and FinalResidual are ‖r‖₁ before and after, for
	// the system residual r = c·Tᵀx + (1−c)v − x.
	InitialResidual float64
	FinalResidual   float64
	// EdgesSwept counts adjacency entries actually touched: the m
	// in-edges of the initial residual sweep plus one out-neighbor list
	// per push. The unit is the same "edges" that SolveStats.EdgesSwept
	// counts for sweep solvers, so push work and sweep work stay
	// comparable in telemetry.
	EdgesSwept int64
	// Converged reports whether FinalResidual met the tolerance; false
	// means the work budget ran out first and the caller's solver is
	// expected to close the remaining gap.
	Converged bool
}

// Refine runs localized Gauss-Southwell push repair on x, in place,
// until the L1 residual of the linear PageRank system
//
//	x = c·Tᵀx + (1−c)·v
//
// drops below tol (or a work budget runs out). Where a solver sweep
// touches every edge to reduce the residual globally, a push relaxes
// one node y — x[y] absorbs its residual, which then reappears damped
// by c at y's out-neighbors — so the cost is proportional to where the
// residual actually lives. After a small graph delta the residual of a
// remapped warm start is concentrated around the changed edges, and
// Refine repairs it with work proportional to the churn, not the
// graph: the subsequent solve typically converges in one verification
// sweep.
//
// Refine is exact in the limit, but callers should treat it as an
// accelerator, not an authority: it hands the solver a better iterate,
// and the solver's own convergence test remains the correctness gate.
// The fixpoint above is the one Jacobi and Gauss-Seidel converge to;
// power iteration solves a different (dangling-reinjected) system, so
// engines configured with AlgoPowerIteration reject Refine.
func (e *Engine) Refine(x, v Vector, tol float64) (*RefineStats, error) {
	n := e.g.NumNodes()
	if len(x) != n {
		return nil, fmt.Errorf("pagerank: refine iterate has length %d, want %d", len(x), n)
	}
	if len(v) != n {
		return nil, fmt.Errorf("pagerank: refine jump vector has length %d, want %d", len(v), n)
	}
	if !(tol > 0) || math.IsInf(tol, 0) {
		return nil, fmt.Errorf("pagerank: refine tolerance %v, want a positive finite value", tol)
	}
	if e.cfg.Algorithm == AlgoPowerIteration {
		return nil, fmt.Errorf("pagerank: refine solves the linear system; the engine is configured for power iteration")
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("pagerank: engine is closed")
	}

	octx := e.cfg.Obs
	sp := octx.Span("pagerank.refine")
	defer sp.End()

	g, inv, c := e.g, e.inv, e.cfg.Damping
	stats := &RefineStats{}
	budget := int64(refineBudgetSweeps) * (g.NumEdges() + int64(n))

	// Initial residual: one pull pass, the only full-graph sweep the
	// happy path pays.
	r := make([]float64, n)
	rsum := 0.0
	for y := 0; y < n; y++ {
		sum := 0.0
		for _, z := range g.InNeighbors(graph.NodeID(y)) {
			sum += x[z] * inv[z]
		}
		r[y] = c*sum + (1-c)*v[y] - x[y]
		rsum += math.Abs(r[y])
	}
	work := g.NumEdges() + int64(n)
	stats.EdgesSwept = g.NumEdges()
	stats.InitialResidual = rsum

	pushRun(g, inv, c, x, r, rsum, tol, work, budget, true, nil, stats)

	if sp != nil {
		sp.SetAttr("pushes", stats.Pushes)
		sp.SetAttr("scans", stats.Scans)
		sp.SetAttr("initial_residual", stats.InitialResidual)
		sp.SetAttr("final_residual", stats.FinalResidual)
		sp.SetAttr("converged", stats.Converged)
	}
	if octx != nil {
		reg := octx.Registry()
		reg.Counter("pagerank.refines_total").Inc()
		reg.Counter("pagerank.refine_pushes_total").Add(stats.Pushes)
	}
	return stats, nil
}

// pushRun is the Gauss-Southwell worklist core shared by Refine (bail
// = true: hand diffuse residuals back to the sweeping solver) and the
// AlgoGaussSouthwell solver mode (bail = false: push to convergence
// within the budget). It relaxes x in place given its residual vector
// r with ‖r‖₁ = rsum: every node whose residual exceeds a threshold is
// relaxed, relaxations cascade, then the threshold tightens and the
// residual is rescanned. Once the threshold reaches tol/(2n), a
// drained worklist implies ‖r‖₁ ≤ n·thresh ≤ tol/2. Each scan
// recomputes ‖r‖₁ exactly, so incremental tracking drift cannot
// accumulate across rounds.
//
// work is the element-touch count already spent by the caller (the
// initial residual build); the run stops when it reaches budget.
// onScan, if non-nil, observes ‖r‖₁ after every rescan. Scans, Pushes,
// EdgesSwept, FinalResidual, and Converged are accumulated into st.
func pushRun(g *graph.Graph, inv []float64, c float64, x, r []float64, rsum, tol float64, work, budget int64, bail bool, onScan func(rsum float64), st *RefineStats) {
	n := len(r)
	queued := make([]bool, n)
	q := make([]int32, 0, 256)
	floor := tol / float64(2*n)
	thresh := rsum / float64(2*n)
	if thresh < floor {
		thresh = floor
	}
	prevScan := math.Inf(1)
	prevPushes := int64(0)
	// The per-push counters stay local until the run ends, so columns
	// pushed concurrently never write to a shared cache line.
	var pushes, edges int64
	for rsum > tol && work < budget {
		rsum = 0
		q = q[:0]
		for y := 0; y < n; y++ {
			a := math.Abs(r[y])
			rsum += a
			if a > thresh {
				queued[y] = true
				q = append(q, int32(y))
			}
		}
		work += int64(n)
		st.Scans++
		if onScan != nil {
			onScan(rsum)
		}
		if rsum <= tol {
			break
		}
		// Once a pushing round stops halving the residual, the remaining
		// error is diffuse rather than churn-localized, and a solver's
		// streaming sweeps reduce it more cheaply than random-access
		// pushes can — hand the iterate back. (Rounds that did no pushes
		// only lowered the threshold; they carry no progress signal.)
		// Solver mode has no sweeps to fall back to and keeps pushing.
		if bail && pushes > prevPushes && rsum > 0.5*prevScan {
			break
		}
		prevScan = rsum
		prevPushes = pushes
		if len(q) == 0 {
			if thresh <= floor {
				break // numerically stuck
			}
			thresh = math.Max(thresh/8, floor)
			continue
		}
		for head := 0; head < len(q) && rsum > tol && work < budget; head++ {
			y := q[head]
			queued[y] = false
			d := r[y]
			if math.Abs(d) <= thresh {
				continue
			}
			if x[y]+d < 0 {
				// From a start above the fixpoint, a negative residual
				// can exceed x[y] by a rounding error where the true
				// score is 0. Push only what x[y] holds and keep the
				// rest in r[y], so x stays non-negative and r exact.
				d = -x[y]
			}
			x[y] += d
			ry := r[y]
			r[y] -= d
			rsum += math.Abs(r[y]) - math.Abs(ry)
			out := g.OutNeighbors(graph.NodeID(y))
			w := c * d * inv[y]
			for _, z := range out {
				old := r[z]
				r[z] += w
				rsum += math.Abs(r[z]) - math.Abs(old)
				if !queued[z] && math.Abs(r[z]) > thresh {
					queued[z] = true
					q = append(q, int32(z))
				}
			}
			work += int64(len(out)) + 1
			edges += int64(len(out))
			pushes++
		}
		thresh = math.Max(thresh/8, floor)
	}
	st.Pushes += pushes
	st.EdgesSwept += edges
	st.FinalResidual = rsum
	st.Converged = rsum <= tol
}
