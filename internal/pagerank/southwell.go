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
// full-sweep equivalents. Vectors of a batch are solved sequentially —
// pushes are inherently single-threaded, and unlike pull sweeps they
// share no adjacency traversal across columns.
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
	start := time.Now()
	stats := &SolveStats{
		Algorithm:   AlgoGaussSouthwell,
		Batch:       k,
		Workers:     1,
		WarmStarted: cfg.WarmStart != nil || cfg.WarmStarts != nil,
	}
	octx := cfg.Obs
	sp := octx.Span("pagerank.solve")
	if sp != nil {
		sp.SetAttr("algorithm", cfg.Algorithm.String())
		sp.SetAttr("batch", k)
		sp.SetAttr("nodes", n)
		sp.SetAttr("workers", 1)
		if tid := octx.TraceID(); tid != "" {
			sp.SetAttr("trace_id", tid)
		}
	}
	traced := cfg.Trace != nil || sp != nil || octx.Logging()
	budget := int64(cfg.MaxIter) * (m + int64(n))

	results := make([]*Result, k)
	var ncErr *ErrNotConverged
	for j, v := range vs {
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
		st := &RefineStats{}
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
		col := j
		onScan := func(rs float64) {
			if col == 0 {
				// Batches run column-serially, so per-scan residuals of
				// different columns do not align; the stats carry the
				// first column's trajectory.
				stats.Residuals = append(stats.Residuals, rs)
			}
			if traced {
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
		stats.EdgesSwept += st.EdgesSwept
		if st.Scans > stats.Iterations {
			stats.Iterations = st.Scans
		}
		iters := st.Scans
		if iters == 0 {
			iters = 1
		}
		results[j] = &Result{
			Scores:     x,
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
