package pagerank

import (
	"fmt"
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
	// WarmStart, if non-nil, is the initial guess p[0] instead of v.
	// Warm-starting from a previous solution cuts iterations sharply
	// when the jump vector changes only slightly — e.g. re-estimating
	// after a Section 4.4.2 core fix.
	WarmStart Vector
	// WarmStarts, if non-nil, supplies one initial guess per jump
	// vector of a SolveMany batch — the delta-refresh path seeds p and
	// p' from the previous snapshot's solutions, which differ per
	// column. Its length must equal the batch width. Setting both
	// WarmStart and WarmStarts is a configuration error.
	WarmStarts []Vector
	// Algorithm selects the solver: AlgoJacobi (default),
	// AlgoGaussSeidel, AlgoPowerIteration, or AlgoGaussSouthwell. All
	// return the linear-system solution of (I − cTᵀ)p = (1−c)v (power
	// iteration's eigenvector is rescaled to it, see the Engine docs);
	// Gauss-Seidel usually needs ~40% fewer iterations but cannot be
	// parallelized, and Gauss-Southwell does work proportional to where
	// the residual lives rather than sweeping every edge.
	Algorithm Algorithm
	// AllowTruncated accepts solves that hit MaxIter without meeting
	// Epsilon: the Result is returned with Converged == false and a
	// nil error. By default such solves surface as *ErrNotConverged so
	// a truncated vector can never be consumed silently.
	AllowTruncated bool
	// Trace, if non-nil, receives one TraceEvent per solver iteration.
	Trace TraceFunc
	// OnStats, if non-nil, receives the finished SolveStats of every
	// solve, after the stats are final but before the results are
	// returned. The serve tier uses it to feed per-solve iteration
	// counts into its metric history without parsing spans. The hook
	// must not retain the stats past the call if it mutates them.
	OnStats func(*SolveStats)
	// Obs, if non-nil, attaches the observability sinks: every solve
	// records a "pagerank.solve" span (with one event per iteration)
	// under the context's root and updates the pagerank.* metrics of
	// its registry. A nil Obs costs a single pointer check per solve.
	Obs *obs.Context
}

// Algorithm names a linear PageRank solver.
type Algorithm int

// Solver algorithms.
const (
	AlgoJacobi Algorithm = iota
	AlgoGaussSeidel
	AlgoPowerIteration
	// AlgoGaussSouthwell is the frontier-based push solver: instead of
	// sweeping every edge per iteration it relaxes individual nodes in
	// residual order, so the cost tracks where the error actually
	// lives. On the 500k-host webgen graph a cold (p, p′) pair touches
	// 3.1× fewer edges than Jacobi (at ε = 1e-11 against Jacobi's
	// 1e-10, where it first serves at least Jacobi's accuracy), and a
	// warm start after a small graph delta pays only for the pull pass
	// that builds its residual plus the pushes around the churn. The
	// columns of a batch are pushed concurrently on the worker pool.
	// It is the one solver spamserver publishes from, cold or warm.
	AlgoGaussSouthwell
)

func (a Algorithm) String() string {
	switch a {
	case AlgoJacobi:
		return "jacobi"
	case AlgoGaussSeidel:
		return "gauss-seidel"
	case AlgoPowerIteration:
		return "power-iteration"
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

func (cfg Config) validate() error {
	if cfg.Damping <= 0 || cfg.Damping >= 1 {
		return fmt.Errorf("pagerank: damping factor %v outside (0,1)", cfg.Damping)
	}
	if cfg.Epsilon <= 0 {
		return fmt.Errorf("pagerank: epsilon %v must be positive", cfg.Epsilon)
	}
	if cfg.MaxIter <= 0 {
		return fmt.Errorf("pagerank: MaxIter %d must be positive", cfg.MaxIter)
	}
	switch cfg.Algorithm {
	case AlgoJacobi, AlgoGaussSeidel, AlgoPowerIteration, AlgoGaussSouthwell:
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
	// sweep's step ‖p[i] − p[i−1]‖₁ for the sweep solvers, the system
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

// solveOnce builds a throwaway engine for one solve. The engine free
// functions below are thin compatibility wrappers over Engine; code
// performing repeated solves on one graph should hold an Engine (or a
// mass.Estimator) instead to reuse the cached graph state and pool.
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

// GaussSeidel solves the same linear system with in-place sweeps, which
// use already-updated scores within an iteration and typically converge
// in fewer iterations than Jacobi (Section 2.2 notes linear solvers such
// as Jacobi or Gauss-Seidel are regularly faster than eigensolvers).
func GaussSeidel(g *graph.Graph, v Vector, cfg Config) (*Result, error) {
	cfg.Algorithm = AlgoGaussSeidel
	return solveOnce(g, v, cfg)
}

// PowerIteration iterates the augmented chain T” = cT' + (1−c)·1·vᵀ
// with T' = T + dvᵀ (Section 2.2): the classical eigenvector PageRank.
// The jump vector v must be a proper distribution (‖v‖₁ = 1). The
// paper shows the stationary eigenvector equals the linear-system
// solution up to a scale; the solver applies that correction (Vigna's
// pseudorank rescaling, see Engine) so the returned scores are the
// solution of (I − cTᵀ)p = (1−c)v — identical across all algorithms,
// not just up to normalization.
func PowerIteration(g *graph.Graph, v Vector, cfg Config) (*Result, error) {
	cfg.Algorithm = AlgoPowerIteration
	return solveOnce(g, v, cfg)
}

// GaussSouthwell solves the linear system with residual-ordered push
// relaxations instead of full sweeps. Cost is proportional to where the residual lives,
// which makes it the solver of choice for localized jump vectors;
// MaxIter bounds its work in full-sweep equivalents.
func GaussSouthwell(g *graph.Graph, v Vector, cfg Config) (*Result, error) {
	cfg.Algorithm = AlgoGaussSouthwell
	return solveOnce(g, v, cfg)
}

// Solve dispatches to the configured linear solver. It is what the
// higher layers (mass estimation, TrustRank) call, so the algorithm
// choice is a single configuration knob.
func Solve(g *graph.Graph, v Vector, cfg Config) (*Result, error) {
	return solveOnce(g, v, cfg)
}

// PR solves the linear PageRank system for jump vector v with the
// Jacobi method and returns the (possibly unnormalized) score vector.
// It panics on invalid configuration or on a non-converged solve; use
// Jacobi (optionally with Config.AllowTruncated) for error handling.
// This is the p = PR(v) notation of the paper.
func PR(g *graph.Graph, v Vector, cfg Config) Vector {
	res, err := Jacobi(g, v, cfg)
	if err != nil {
		panic(err)
	}
	return res.Scores
}
