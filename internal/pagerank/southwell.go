package pagerank

import (
	"math"
	"slices"

	"spammass/internal/graph"
)

// solveSouthwell runs the AlgoGaussSouthwell solver. Instead of
// sweeping all m edges per iteration it relaxes nodes in residual
// order (pushRun) until ‖r‖₁ < Epsilon, with the total work bounded by
// MaxIter full-sweep equivalents. A column starts at x = 0, or at a
// copy of its warm start, which is never written. Pushes within a
// column are inherently sequential, but the columns of a batch share
// only the read-only graph and inv, so on an engine with a worker pool
// they are pushed concurrently, one contiguous range of columns per
// pool chunk. Each column keeps its own iterate, residual and
// worklist, so its result is bit-identical to a sequential run.
//
// Result.Iterations reports worklist scans, the closest analogue of
// sweeps; Stats.EdgesSwept counts adjacency entries actually touched
// (the initial residual sweep for warm starts plus one out-neighbor
// list per push), keeping EdgesPerSecond honest next to sweep solvers.
//
// Callers hold e.mu and have validated cfg and the jump vectors.
func (e *Engine) solveSouthwell(vs []Vector, cfg Config) ([]*Result, error) {
	n, k := e.g.NumNodes(), len(vs)
	g, inv, c := e.g, e.inv, cfg.Damping
	// workers is the number of pool chunks run(k, …) makes, i.e. the
	// columns pushed at once.
	workers := 1
	if e.pool != nil {
		chunk := (k + e.pool.workers - 1) / e.pool.workers
		workers = (k + chunk - 1) / chunk
	}
	run := startSolve(cfg, n, k, workers)
	stats := run.stats

	xs := make([]Vector, k)
	sts := make([]RefineStats, k)
	solveColumn := func(j int) {
		var warm Vector
		if cfg.WarmStarts != nil {
			warm = cfg.WarmStarts[j]
		}
		x := make(Vector, n)
		copy(x, warm)
		st := &sts[j]
		// Per-scan telemetry comes from the first column alone: scans of
		// different columns do not align, and concurrently pushed
		// columns must not write the stats, the span or the log at once.
		var onScan func(float64)
		if j == 0 {
			onScan = func(rs float64) { run.observe(st.Scans, rs) }
		}
		pushRun(g, inv, c, x, vs[j], warm != nil, cfg.Epsilon, cfg.MaxIter, onScan, st)
		xs[j] = x
	}
	if workers > 1 {
		e.pool.run(k, func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				solveColumn(j)
			}
		})
	} else {
		for j := range vs {
			solveColumn(j)
		}
	}

	results := make([]*Result, k)
	for j := range vs {
		st := &sts[j]
		stats.EdgesSwept += st.EdgesSwept
		stats.Pushes += st.Pushes
		if st.Scans > stats.Iterations {
			stats.Iterations = st.Scans
		}
		iters := st.Scans
		if iters == 0 {
			iters = 1
		}
		results[j] = &Result{
			Scores:     xs[j],
			Iterations: iters,
			Residual:   st.FinalResidual,
			Converged:  st.Converged,
			Stats:      stats,
		}
	}
	if stats.Iterations == 0 {
		stats.Iterations = 1
	}
	return run.finish(results)
}

// pushRun is the Gauss-Southwell worklist core: it pushes one column x
// in place toward the solution of x = c·Tᵀx + (1−c)·v until ‖r‖₁ ≤ tol
// or maxIter full-sweep equivalents (m+n element touches each) are
// spent. A warm x gets its residual r = c·Tᵀx + (1−c)v − x from one
// pull pass over the in-edges; a cold x must be 0, whose residual is
// (1−c)v exactly, with no pass. Then every node whose residual
// exceeds a threshold is relaxed, relaxations cascade, the threshold
// tightens and the residual is rescanned. Once the threshold reaches
// tol/(2n), a drained worklist implies ‖r‖₁ ≤ n·thresh ≤ tol/2. Each
// scan recomputes ‖r‖₁ exactly, so incremental tracking drift cannot
// accumulate across rounds.
//
// onScan, if non-nil, observes ‖r‖₁ after every rescan. Scans, Pushes,
// EdgesSwept, InitialResidual, FinalResidual and Converged are
// recorded in st.
func pushRun(g *graph.Graph, inv []float64, c float64, x, v Vector, warm bool, tol float64, maxIter int, onScan func(rsum float64), st *RefineStats) {
	n := len(x)
	m := g.NumEdges()
	r := make([]float64, n)
	rsum := 0.0
	work := int64(n)
	if warm {
		for y := 0; y < n; y++ {
			sum := 0.0
			for _, z := range g.InNeighbors(graph.NodeID(y)) {
				sum += x[z] * inv[z]
			}
			r[y] = c*sum + (1-c)*v[y] - x[y]
			rsum += math.Abs(r[y])
		}
		work += m
		st.EdgesSwept += m
	} else {
		for y := 0; y < n; y++ {
			r[y] = (1 - c) * v[y]
			rsum += math.Abs(r[y])
		}
	}
	st.InitialResidual = rsum
	budget := int64(maxIter) * (m + int64(n))

	queued := make([]uint8, n)
	q := make([]int32, 0, 256)
	floor := tol / float64(2*n)
	thresh := rsum / float64(2*n)
	if thresh < floor {
		thresh = floor
	}
	// The per-push counters stay local until the run ends, so columns
	// pushed concurrently never write to a shared cache line.
	var pushes, edges int64
	for rsum > tol && work < budget {
		// Every node was dequeued before this rescan, so queued is all
		// 0 and a plain store of e sets it.
		rsum = 0
		q = slices.Grow(q[:0], n)[:n]
		k := 0
		for y := 0; y < n; y++ {
			a := math.Abs(r[y])
			rsum += a
			e := b2u(a > thresh)
			queued[y] = e
			q[k] = int32(y)
			k += int(e)
		}
		q = q[:k]
		work += int64(n)
		st.Scans++
		if onScan != nil {
			onScan(rsum)
		}
		if rsum <= tol {
			break
		}
		if len(q) == 0 {
			if thresh <= floor {
				break // numerically stuck
			}
			thresh = math.Max(thresh/8, floor)
			continue
		}
		for head := 0; head < len(q) && rsum > tol && work < budget; head++ {
			y := q[head]
			queued[y] = 0
			d := r[y]
			if math.Abs(d) <= thresh {
				continue
			}
			// From a start above the fixpoint, a negative residual can
			// exceed x[y] by a rounding error where the true score is 0.
			// Push only what x[y] holds and keep the rest in r[y], so x
			// stays non-negative and r exact. Since x ≥ 0 (a warm start
			// is checked for it), x[y]+d < 0 needs d < 0.
			if d < 0 && x[y]+d < 0 {
				d = -x[y]
			}
			x[y] += d
			ry := r[y]
			r[y] -= d
			rsum += math.Abs(r[y]) - math.Abs(ry)
			out := g.OutNeighbors(graph.NodeID(y))
			// 1/len(out) equals inv[y] bit for bit and costs no load
			// from inv; a dangling y spreads nothing, so its w (±Inf
			// or NaN) is never used.
			w := c * d * (1 / float64(len(out)))
			// Enqueue without a data-dependent branch: z is always
			// stored at q[k], and k advances only for a node that
			// crosses thresh and is not queued already — the same
			// nodes, in the same order, as a conditional append.
			q = slices.Grow(q, len(out))
			k := len(q)
			q = q[:k+len(out)]
			for _, z := range out {
				old := r[z]
				nz := old + w
				r[z] = nz
				rsum += math.Abs(nz) - math.Abs(old)
				e := b2u(math.Abs(nz) > thresh) &^ queued[z]
				queued[z] |= e
				q[k] = int32(z)
				k += int(e)
			}
			q = q[:k]
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

// b2u converts a comparison to 0 or 1; the compiler lowers it to a
// flag set, not a branch.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
