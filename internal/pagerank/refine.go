package pagerank

import (
	"fmt"
	"math"
)

// refineBudgetSweeps is Refine's MaxIter: its push work is bounded by
// this many full-sweep equivalents (one sweep ≈ m+n element touches).
const refineBudgetSweeps = 12

// RefineStats reports what one pushed column did: a Refine call, or
// one column of an AlgoGaussSouthwell solve.
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
	// in-edges of a warm start's residual pass plus one out-neighbor
	// list per push. The unit is the same "edges" that
	// SolveStats.EdgesSwept counts for sweep solvers, so push work and
	// sweep work stay comparable in telemetry.
	EdgesSwept int64
	// Converged reports whether FinalResidual met the tolerance; false
	// means the work budget ran out first.
	Converged bool
}

// Refine pushes x, in place, toward the solution of the linear
// PageRank system
//
//	x = c·Tᵀx + (1−c)·v
//
// until its L1 residual drops below tol or refineBudgetSweeps
// full-sweep equivalents are spent. It is one warm-started column of
// the AlgoGaussSouthwell solver, run on x itself: a solve with
// Config.WarmStart = x leaves x untouched, Refine overwrites it.
//
// No server or library path calls Refine: delta builds and recovery
// pass their warm start to SolveManyConfig. Its last caller is the
// bench layer trace, and the bench seam (ROADMAP item 6) deletes it.
// Power iteration solves a different (dangling-reinjected) system, so
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
	st := &RefineStats{}
	pushRun(e.g, e.inv, e.cfg.Damping, x, v, true, tol, refineBudgetSweeps, nil, st)
	return st, nil
}
