package pagerank

import (
	"fmt"
	"math"
	"runtime"

	"spammass/internal/graph"
	"spammass/internal/obs"
)

// Config controls the PageRank computation.
type Config struct {
	// Damping is the probability c of following a link rather than
	// jumping; the paper uses c = 0.85 throughout.
	Damping float64
	// Epsilon is the L1 convergence bound ‖p[i] − p[i−1]‖ < ε of
	// Algorithm 1.
	Epsilon float64
	// MaxIter caps the number of iterations.
	MaxIter int
	// Workers is the number of goroutines used for the sparse
	// matrix-vector products; 0 means GOMAXPROCS.
	Workers int
	// WarmStarts, if non-nil, supplies one initial guess per jump
	// vector of a SolveMany batch instead of the jump vectors
	// themselves — the delta-refresh path seeds p and p' from the
	// previous snapshot's solutions, and a Section 4.4.2 core fix
	// re-solves from the previous p'. Its length must equal the batch
	// width.
	WarmStarts []Vector
	// Algorithm selects the solver: AlgoJacobi (default, Algorithm 1)
	// or AlgoGaussSouthwell. Both return the solution of
	// (I − cTᵀ)p = (1−c)v; Gauss-Southwell does work proportional to
	// where the residual lives rather than sweeping every edge.
	Algorithm Algorithm
	// AllowTruncated accepts solves that hit MaxIter without meeting
	// Epsilon: the Result is returned with Converged == false and a
	// nil error. By default such solves surface as *ErrNotConverged so
	// a truncated vector can never be consumed silently.
	AllowTruncated bool
	// Obs, if non-nil, attaches the observability sinks: every solve
	// records a "pagerank.solve" span (with one event per iteration,
	// also written to the context's log) under the context's root and
	// updates the pagerank.* metrics of its registry. A nil Obs costs a
	// single pointer check per solve; the per-iteration residuals are
	// in Result.Stats.Residuals either way.
	Obs *obs.Context
}

// Algorithm names a linear PageRank solver.
type Algorithm int

// Solver algorithms. AlgoJacobi is Algorithm 1 of the paper and the
// reference every accuracy test compares against.
const (
	AlgoJacobi Algorithm = iota
	// AlgoGaussSouthwell is the frontier-based push solver: instead of
	// sweeping every edge per iteration it relaxes individual nodes in
	// residual order, so the cost tracks where the error actually
	// lives. It pushes only the nodes with out-links and then sets each
	// dangling node exactly in one pass (pushBlock). On the 1M-host
	// webgen graph one cold column touches 6.5× fewer edges than
	// Jacobi (at spamserver's ε = 3e-12 against Jacobi's 1e-10;
	// BenchmarkSolve1M*), and a warm start after a small graph delta
	// pays only for the pass that builds its residual plus the pushes
	// around the churn. The columns of a batch are pushed concurrently
	// on the worker pool. It is the one solver spamserver publishes
	// from, cold or warm.
	AlgoGaussSouthwell
)

func (a Algorithm) String() string {
	switch a {
	case AlgoJacobi:
		return "jacobi"
	case AlgoGaussSouthwell:
		return "gauss-southwell"
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// DefaultConfig returns the configuration used in the paper's
// experiments: c = 0.85, with a convergence bound tight enough that
// scaled scores are stable to far beyond the two decimals reported.
func DefaultConfig() Config {
	return Config{Damping: 0.85, Epsilon: 1e-12, MaxIter: 1000}
}

// WithDefaults returns cfg with zero values replaced by the defaults.
// It is the single place default resolution happens; higher layers
// (mass estimation, the out-of-core solver) use it rather than
// duplicating the zero-handling.
func (cfg Config) WithDefaults() Config {
	if cfg.Damping == 0 {
		cfg.Damping = 0.85
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1e-12
	}
	if cfg.MaxIter == 0 {
		cfg.MaxIter = 1000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// validate rejects a configuration no solve can honour. The range
// tests are written so that NaN, which compares false to everything,
// fails them too.
func (cfg Config) validate() error {
	if !(cfg.Damping > 0 && cfg.Damping < 1) {
		return fmt.Errorf("pagerank: damping factor %v outside (0,1)", cfg.Damping)
	}
	if !(cfg.Epsilon > 0) || math.IsInf(cfg.Epsilon, 1) {
		return fmt.Errorf("pagerank: epsilon %v must be positive and finite", cfg.Epsilon)
	}
	if cfg.MaxIter <= 0 {
		return fmt.Errorf("pagerank: MaxIter %d must be positive", cfg.MaxIter)
	}
	switch cfg.Algorithm {
	case AlgoJacobi, AlgoGaussSouthwell:
	default:
		return fmt.Errorf("pagerank: unknown algorithm %d", int(cfg.Algorithm))
	}
	return nil
}

// Result carries a solved PageRank vector and convergence diagnostics.
type Result struct {
	Scores     Vector
	Iterations int
	// Residual is the convergence measure Epsilon bounds: the last
	// sweep's step ‖p[i] − p[i−1]‖₁ for Jacobi, the system
	// residual ‖c·Tᵀp + (1−c)v − p‖₁ for Gauss-Southwell.
	Residual float64
	// Converged reports whether Residual < Epsilon within MaxIter.
	// Unless Config.AllowTruncated is set, a Result with Converged ==
	// false is always accompanied by an *ErrNotConverged.
	Converged bool
	// Stats holds the solve telemetry. Results of one SolveMany batch
	// share the same *SolveStats.
	Stats *SolveStats
}

// solveOnce builds a throwaway engine for one solve. Jacobi below is a
// thin wrapper over it; code performing repeated solves on
// one graph should hold an Engine (or a mass.Estimator) instead to
// reuse the cached graph state and pool.
func solveOnce(g *graph.Graph, v Vector, cfg Config) (*Result, error) {
	eng, err := NewEngine(g, cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	return eng.Solve(v)
}

// Jacobi solves (I − cTᵀ)p = (1−c)v with the Jacobi iteration of
// Algorithm 1: p[i] ← cTᵀp[i−1] + (1−c)v, starting from p[0] = v.
// The jump vector v may be non-uniform and unnormalized.
func Jacobi(g *graph.Graph, v Vector, cfg Config) (*Result, error) {
	cfg.Algorithm = AlgoJacobi
	return solveOnce(g, v, cfg)
}
