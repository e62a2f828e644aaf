package pagerank

import (
	"errors"
	"fmt"
	"time"

	"spammass/internal/obs"
)

// ErrNotConverged reports a solve that exhausted MaxIter with the L1
// residual still at or above Epsilon. Solvers return it together with
// the truncated *Result so callers can still inspect the partial
// scores and diagnostics; setting Config.AllowTruncated accepts such
// results without error instead.
type ErrNotConverged struct {
	Algorithm  Algorithm
	Iterations int
	Residual   float64
	Epsilon    float64
	// Column is the index of the worst non-converged jump vector
	// within a SolveMany batch; it is 0 for single solves.
	Column int
}

func (e *ErrNotConverged) Error() string {
	return fmt.Sprintf("pagerank: %s did not converge: residual %.3e ≥ epsilon %.3e after %d iterations",
		e.Algorithm, e.Residual, e.Epsilon, e.Iterations)
}

// IsNotConverged reports whether err is (or wraps) an *ErrNotConverged.
func IsNotConverged(err error) bool {
	var nc *ErrNotConverged
	return errors.As(err, &nc)
}

// traceEvent is one per-iteration telemetry sample: the source of the
// pagerank.solve span's events and of the -v log lines.
type traceEvent struct {
	Algorithm Algorithm
	// Batch is the number of jump vectors being solved together.
	Batch int
	// Iteration counts from 1.
	Iteration int
	// Residual is the largest per-vector L1 residual of the iteration
	// (for Gauss-Southwell, which reports each scan of the first column
	// only, that column's ‖r‖₁).
	Residual float64
	// Elapsed is the wall time since the solve started.
	Elapsed time.Duration
}

// String renders the event as the one-line form shared by -v logs and
// span events, so the two can never diverge.
func (e traceEvent) String() string {
	return fmt.Sprintf("%s batch=%d iter=%3d residual=%.3e elapsed=%s",
		e.Algorithm, e.Batch, e.Iteration, e.Residual, e.Elapsed.Round(time.Microsecond))
}

// SolveStats aggregates the telemetry of one solve (or one batched
// solve). All Results of a batch share the same *SolveStats.
type SolveStats struct {
	Algorithm Algorithm
	// Batch is the number of jump vectors solved together.
	Batch int
	// Iterations is the number of sweeps executed before the whole
	// batch converged (or MaxIter was hit); for Gauss-Southwell it is
	// the most worklist scans any column ran. Individual vectors may
	// have converged earlier; see Result.Iterations.
	Iterations int
	// Residuals holds the largest per-vector L1 residual after each
	// iteration, Residuals[i] being iteration i+1 (for Gauss-Southwell,
	// the first column's ‖r‖₁ after each scan).
	Residuals []float64
	// WallTime is the total solve duration.
	WallTime time.Duration
	// EdgesSwept counts in-edges visited across all iterations. A
	// batched solve traverses the in-neighbor lists once per iteration
	// regardless of batch width, which is exactly its advantage. For
	// Gauss-Southwell it sums every column's RefineStats.EdgesSwept.
	EdgesSwept int64
	// Pushes counts Gauss-Southwell relaxations across all columns (0
	// for a sweep solver).
	Pushes int64
	// EdgesPerSecond is the sweep throughput EdgesSwept / WallTime.
	EdgesPerSecond float64
	// Workers is the number of goroutines used for parallel sweeps
	// (1 when the sweep ran sequentially); for Gauss-Southwell it is
	// the number of columns pushed at once.
	Workers int
	// WarmStarted reports whether the solve was seeded from previous
	// solutions (Config.WarmStarts) rather than the jump vectors.
	WarmStarted bool
	// InitialResidual is the L1 residual after the first sweep — for a
	// warm-started solve it measures how far the seed was from the new
	// fixpoint, which is what makes warm vs cold starts comparable in
	// run reports.
	InitialResidual float64
}

// finish stamps the wall time and derives the sweep throughput. It is
// the single place EdgesPerSecond is computed: a sub-resolution wall
// time (clocks can report 0 on sub-microsecond test solves) leaves the
// rate at 0 instead of producing +Inf or NaN.
func (s *SolveStats) finish(wall time.Duration) {
	s.WallTime = wall
	s.EdgesPerSecond = 0
	if secs := wall.Seconds(); secs > 0 {
		s.EdgesPerSecond = float64(s.EdgesSwept) / secs
	}
	if len(s.Residuals) > 0 {
		s.InitialResidual = s.Residuals[0]
	}
}

// String renders a one-line summary suitable for -v logs. The
// throughput is rounded to whole edges per second.
func (s *SolveStats) String() string {
	return fmt.Sprintf("%s: batch=%d iters=%d wall=%v edges=%d (%.0f edges/s, %d workers)",
		s.Algorithm, s.Batch, s.Iterations, s.WallTime.Round(time.Microsecond), s.EdgesSwept, s.EdgesPerSecond, s.Workers)
}

// solveRun is the bookkeeping every algorithm shares: the
// pagerank.solve span, the per-iteration residual record, and the
// result contract of finish. An algorithm opens one with startSolve,
// reports each iteration to observe, and returns what finish returns.
type solveRun struct {
	cfg   Config
	sp    *obs.Span
	start time.Time
	stats *SolveStats
}

// startSolve opens the telemetry of one batched solve of k vectors on
// workers goroutines.
func startSolve(cfg Config, n, k, workers int) *solveRun {
	r := &solveRun{
		cfg:   cfg,
		start: time.Now(),
		stats: &SolveStats{
			Algorithm:   cfg.Algorithm,
			Batch:       k,
			Workers:     workers,
			WarmStarted: cfg.WarmStarts != nil,
		},
	}
	octx := cfg.Obs
	if r.sp = octx.Span("pagerank.solve"); r.sp != nil {
		r.sp.SetAttr("algorithm", cfg.Algorithm.String())
		r.sp.SetAttr("batch", k)
		r.sp.SetAttr("nodes", n)
		r.sp.SetAttr("workers", workers)
		if tid := octx.TraceID(); tid != "" {
			r.sp.SetAttr("trace_id", tid)
		}
	}
	return r
}

// observe records the residual of iteration it in Stats.Residuals and,
// when a span or log is attached, renders it once for both.
func (r *solveRun) observe(it int, residual float64) {
	r.stats.Residuals = append(r.stats.Residuals, residual)
	octx := r.cfg.Obs
	if r.sp == nil && !octx.Logging() {
		return
	}
	msg := traceEvent{
		Algorithm: r.cfg.Algorithm,
		Batch:     r.stats.Batch,
		Iteration: it,
		Residual:  residual,
		Elapsed:   time.Since(r.start),
	}.String()
	r.sp.Event(msg)
	octx.Logf("%s", msg)
}

// sweep runs the Jacobi loop every sweep solver shares over the run's
// Batch columns: step performs one sweep of all m edges and leaves
// each column's L1 step ‖next − cur‖₁ in resid. It stops once every
// column has met Epsilon or after MaxIter sweeps, and returns one
// Result per column with all but Scores set, which the caller fills
// before handing them to finish. A step error ends the span and is
// returned as is.
func (r *solveRun) sweep(m int64, step func(resid []float64) error) ([]*Result, error) {
	stats, eps := r.stats, r.cfg.Epsilon
	resid := make([]float64, stats.Batch)
	results := make([]*Result, stats.Batch)
	for j := range results {
		results[j] = &Result{Stats: stats}
	}
	left := len(results) // columns that have not yet met Epsilon
	for it := 1; left > 0 && it <= r.cfg.MaxIter; it++ {
		if err := step(resid); err != nil {
			r.sp.End()
			return nil, err
		}
		stats.Iterations = it
		stats.EdgesSwept += m
		maxRes := 0.0
		for j, res := range results {
			res.Residual = resid[j]
			if resid[j] > maxRes {
				maxRes = resid[j]
			}
			if !res.Converged && resid[j] < eps {
				res.Converged = true
				res.Iterations = it // the sweep at which it first met Epsilon
				left--
			}
		}
		r.observe(it, maxRes)
	}
	for _, res := range results {
		if !res.Converged {
			res.Iterations = stats.Iterations
		}
	}
	return results, nil
}

// finish closes the solve: it stamps the stats, feeds the pagerank.*
// metrics, ends the span, scans the results under the vectorcheck tag
// and, unless truncation is allowed, reports the worst column that
// missed Epsilon — the one with the largest residual, the first on a
// tie — as an *ErrNotConverged beside the results. The caller has set
// Stats.Iterations and Stats.EdgesSwept.
func (r *solveRun) finish(results []*Result) ([]*Result, error) {
	stats := r.stats
	stats.finish(time.Since(r.start))
	if octx := r.cfg.Obs; octx != nil {
		reg := octx.Registry()
		reg.Counter("pagerank.solves_total").Inc()
		reg.Counter("pagerank.batch_vectors_total").Add(int64(stats.Batch))
		reg.Counter("pagerank.iterations_total").Add(int64(stats.Iterations))
		reg.Counter("pagerank.edges_swept_total").Add(stats.EdgesSwept)
		reg.Histogram("pagerank.solve_seconds").Observe(stats.WallTime.Seconds())
	}
	if sp := r.sp; sp != nil {
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
	if r.cfg.AllowTruncated {
		return results, nil
	}
	worst := -1
	for j, res := range results {
		if !res.Converged && (worst < 0 || res.Residual > results[worst].Residual) {
			worst = j
		}
	}
	if worst < 0 {
		return results, nil
	}
	return results, &ErrNotConverged{
		Algorithm:  r.cfg.Algorithm,
		Iterations: results[worst].Iterations,
		Residual:   results[worst].Residual,
		Epsilon:    r.cfg.Epsilon,
		Column:     worst,
	}
}
