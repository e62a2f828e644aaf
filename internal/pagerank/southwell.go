package pagerank

import (
	"fmt"
	"math"
	"time"

	"spammass/internal/graph"
)

// solveSouthwell runs the AlgoGaussSouthwell solver: the push
// machinery of Engine.Refine promoted to a full solver mode. Instead
// of sweeping all m edges per iteration it relaxes nodes in residual
// order until ‖r‖₁ < Epsilon, with the total work bounded by MaxIter
// full-sweep equivalents. Pushes within a column are inherently
// sequential, but the columns of a batch share only the read-only
// graph and inv, so on an engine with a worker pool they are pushed
// concurrently, one contiguous range of columns per pool chunk. Each
// column keeps its own iterate, residual and worklist, so its result
// is bit-identical to a sequential run.
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
	m := g.NumEdges()
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
	budget := int64(cfg.MaxIter) * (m + int64(n))

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
		r := make([]float64, n)
		rsum := 0.0
		st := &sts[j]
		var work int64
		if warm != nil {
			copy(x, warm)
			for y := 0; y < n; y++ {
				sum := 0.0
				for _, z := range g.InNeighbors(graph.NodeID(y)) {
					sum += x[z] * inv[z]
				}
				r[y] = c*sum + (1-c)*v[y] - x[y]
				rsum += math.Abs(r[y])
			}
			work = m + int64(n)
			st.EdgesSwept = m
		} else {
			// Cold start from x = 0: the residual is (1−c)·v exactly,
			// no sweep required.
			oneMinusC := 1 - c
			for y := 0; y < n; y++ {
				r[y] = oneMinusC * v[y]
				rsum += math.Abs(r[y])
			}
			work = int64(n)
		}
		st.InitialResidual = rsum
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
		pushRun(g, inv, c, x, r, rsum, cfg.Epsilon, work, budget, false, onScan, st)
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
