package pagerank

import (
	"fmt"
	"math"
	"time"

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
	start := time.Now()
	stats := &SolveStats{
		Algorithm:   AlgoGaussSouthwell,
		Batch:       k,
		Workers:     workers,
		WarmStarted: cfg.WarmStart != nil || cfg.WarmStarts != nil,
	}
	octx := cfg.Obs
	sp := octx.Span("pagerank.solve")
	if sp != nil {
		sp.SetAttr("algorithm", cfg.Algorithm.String())
		sp.SetAttr("batch", k)
		sp.SetAttr("nodes", n)
		sp.SetAttr("workers", workers)
		if tid := octx.TraceID(); tid != "" {
			sp.SetAttr("trace_id", tid)
		}
	}
	traced := cfg.Trace != nil || sp != nil || octx.Logging()

	xs := make([]Vector, k)
	sts := make([]RefineStats, k)
	solveColumn := func(j int) {
		v := vs[j]
		var warm Vector
		switch {
		case cfg.WarmStarts != nil:
			warm = cfg.WarmStarts[j]
		case cfg.WarmStart != nil:
			warm = cfg.WarmStart
		}
		x := make(Vector, n)
		copy(x, warm)
		st := &sts[j]
		// Per-scan telemetry comes from the first column alone: scans of
		// different columns do not align, and concurrently pushed
		// columns must not call the Trace hook, the span or the log at
		// once.
		var onScan func(float64)
		if j == 0 {
			onScan = func(rs float64) {
				stats.Residuals = append(stats.Residuals, rs)
				if !traced {
					return
				}
				ev := TraceEvent{
					Algorithm: AlgoGaussSouthwell,
					Batch:     k,
					Iteration: st.Scans,
					Residual:  rs,
					Elapsed:   time.Since(start),
				}
				if cfg.Trace != nil {
					cfg.Trace(ev)
				}
				if sp != nil || octx.Logging() {
					msg := ev.String()
					sp.Event(msg)
					octx.Logf("%s", msg)
				}
			}
		}
		pushRun(g, inv, c, x, v, warm != nil, cfg.Epsilon, cfg.MaxIter, onScan, st)
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
	var ncErr *ErrNotConverged
	for j := range vs {
		st := &sts[j]
		stats.EdgesSwept += st.EdgesSwept
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
		if !st.Converged && (ncErr == nil || st.FinalResidual > ncErr.Residual) {
			ncErr = &ErrNotConverged{
				Algorithm:  AlgoGaussSouthwell,
				Iterations: iters,
				Residual:   st.FinalResidual,
				Epsilon:    cfg.Epsilon,
				Column:     j,
			}
		}
	}
	if stats.Iterations == 0 {
		stats.Iterations = 1
	}
	stats.finish(time.Since(start))
	if octx != nil {
		reg := octx.Registry()
		reg.Counter("pagerank.solves_total").Inc()
		reg.Counter("pagerank.batch_vectors_total").Add(int64(k))
		reg.Counter("pagerank.iterations_total").Add(int64(stats.Iterations))
		reg.Counter("pagerank.edges_swept_total").Add(stats.EdgesSwept)
		reg.Histogram("pagerank.solve_seconds").Observe(stats.WallTime.Seconds())
	}
	if cfg.OnStats != nil {
		cfg.OnStats(stats)
	}
	if sp != nil {
		sp.SetAttr("iterations", stats.Iterations)
		if len(stats.Residuals) > 0 {
			sp.SetAttr("final_residual", stats.Residuals[len(stats.Residuals)-1])
		}
		sp.SetAttr("edges_swept", stats.EdgesSwept)
		sp.End()
	}
	if err := vectorCheck(results); err != nil {
		return nil, fmt.Errorf("pagerank: %w", err)
	}
	if !cfg.AllowTruncated && ncErr != nil {
		return results, ncErr
	}
	return results, nil
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

	queued := make([]bool, n)
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
