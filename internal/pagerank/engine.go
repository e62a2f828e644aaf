package pagerank

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"spammass/internal/graph"
)

// parallelThreshold is the node count below which parallel sweeps cost
// more in coordination than they save.
const parallelThreshold = 4096

// Engine is a reusable PageRank solver bound to one graph. It computes
// the inverse out-degrees once at construction, and the Gauss-Southwell
// block (pushBlock) once on its first push, instead of on every solve,
// keeps one persistent worker pool alive across iterations and solves,
// and offers batched solves (SolveMany) that sweep the in-neighbor
// lists once per iteration for several jump vectors at a time.
//
// An Engine is safe for concurrent use; solves are serialized
// internally. Call Close when done to release the worker pool (a
// finalizer eventually releases it otherwise, so forgetting Close
// cannot leak goroutines permanently).
type Engine struct {
	g   *graph.Graph
	cfg Config
	inv []float64  // 1/out(x), 0 for dangling nodes
	blk *pushBlock // the push's block, built by the first push

	mu      sync.Mutex
	pool    *workerPool
	cur     []float64 // interleaved solve buffers, reused across solves
	next    []float64
	jump    []float64
	partial []float64 // chunk-local residual accumulators

	closed bool
}

// NewEngine validates cfg, resolves its defaults, and precomputes the
// per-graph solver state.
func NewEngine(g *graph.Graph, cfg Config) (*Engine, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	e := &Engine{g: g, cfg: cfg, inv: make([]float64, n)}
	for x := 0; x < n; x++ {
		if d := g.OutDegree(graph.NodeID(x)); d > 0 {
			e.inv[x] = 1 / float64(d)
		}
	}
	if cfg.Workers > 1 && n >= parallelThreshold {
		e.pool = newWorkerPool(cfg.Workers)
		runtime.SetFinalizer(e, (*Engine).Close)
	}
	return e, nil
}

// block returns the engine's push block, building it on first use.
// Callers hold e.mu.
func (e *Engine) block() *pushBlock {
	if e.blk == nil {
		e.blk = newPushBlock(e.g, e.inv)
	}
	return e.blk
}

// Graph returns the graph the engine is bound to.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Config returns the engine configuration with defaults resolved.
func (e *Engine) Config() Config { return e.cfg }

// Close releases the worker pool. The engine must not be used after
// Close; it is safe to call Close more than once.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	e.blk = nil
	if e.pool != nil {
		e.pool.close()
		e.pool = nil
		// Closed, the engine needs no finalizer; left set, it would
		// keep the engine reachable through one more GC cycle.
		runtime.SetFinalizer(e, nil)
	}
}

// Solve runs the engine's configured algorithm for one jump vector.
func (e *Engine) Solve(v Vector) (*Result, error) {
	return e.SolveConfig(v, e.cfg)
}

// SolveConfig solves with per-call overrides (warm start, epsilon,
// algorithm, obs context, …). The Workers setting is fixed at engine
// construction and ignored here.
func (e *Engine) SolveConfig(v Vector, cfg Config) (*Result, error) {
	rs, err := e.SolveManyConfig([]Vector{v}, cfg)
	if rs == nil {
		return nil, err
	}
	return rs[0], err
}

// SolveMany solves the system once per jump vector, sharing a single
// sweep of the in-neighbor lists per iteration across the whole batch.
// The dominant cost of a pull sweep is traversing the adjacency, so k
// batched solves cost far less than k sequential ones.
//
// The batch iterates until every vector has converged (vectors that
// converge early keep improving); Result.Iterations reports, per
// vector, the iteration at which that vector first met Epsilon.
func (e *Engine) SolveMany(vs []Vector) ([]*Result, error) {
	return e.SolveManyConfig(vs, e.cfg)
}

// SolveManyConfig is SolveMany with per-call overrides; a non-nil
// cfg.WarmStarts seeds each vector of the batch with its own initial
// guess.
func (e *Engine) SolveManyConfig(vs []Vector, cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	cfg.Workers = e.cfg.Workers
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k := len(vs)
	if k == 0 {
		return nil, nil
	}
	if err := checkBatch(vs, cfg.WarmStarts, e.g.NumNodes()); err != nil {
		return nil, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("pagerank: engine is closed")
	}
	return e.solveBatch(vs, cfg)
}

// checkBatch holds a batch of jump vectors, and its warm starts when
// there are any, to one vector per column of length n each, and every
// warm score to a finite value ≥ 0: the push keeps x ≥ 0 from such a
// start (its clamp relies on it), and no PageRank is negative.
func checkBatch(vs, warm []Vector, n int) error {
	for j, v := range vs {
		if len(v) != n {
			return fmt.Errorf("pagerank: jump vector %d has length %d, want %d", j, len(v), n)
		}
	}
	if warm != nil {
		if len(warm) != len(vs) {
			return fmt.Errorf("pagerank: %d warm starts for a batch of %d vectors", len(warm), len(vs))
		}
		for j, w := range warm {
			if len(w) != n {
				return fmt.Errorf("pagerank: warm start %d has length %d, want %d", j, len(w), n)
			}
			if i := badScore(w); i >= 0 {
				return fmt.Errorf("pagerank: warm start %d holds %v at node %d, want a finite score ≥ 0", j, w[i], i)
			}
		}
	}
	return nil
}

// badScore returns the first node whose score in x is negative, NaN or
// ±Inf, or -1 when there is none. The test is written so that NaN,
// which compares false to everything, fails it too.
func badScore(x Vector) int {
	for i, s := range x {
		if !(s >= 0 && s <= math.MaxFloat64) {
			return i
		}
	}
	return -1
}

// solveBatch runs the iteration loop. Callers hold e.mu and have
// validated cfg and the jump vectors.
func (e *Engine) solveBatch(vs []Vector, cfg Config) ([]*Result, error) {
	if cfg.Algorithm == AlgoGaussSouthwell {
		return e.solveSouthwell(vs, cfg)
	}
	n, k := e.g.NumNodes(), len(vs)
	size := n * k
	e.jump = growBuf(e.jump, size)
	e.cur = growBuf(e.cur, size)
	e.next = growBuf(e.next, size)
	jump, cur, next := e.jump, e.cur, e.next
	for j, v := range vs {
		for i := 0; i < n; i++ {
			jump[i*k+j] = v[i]
		}
	}
	if cfg.WarmStarts != nil {
		for j, w := range cfg.WarmStarts {
			for i := 0; i < n; i++ {
				cur[i*k+j] = w[i]
			}
		}
	} else {
		copy(cur, jump)
	}
	workers := 1
	if e.pool != nil && n >= parallelThreshold {
		workers = e.pool.workers
	}
	e.partial = growBuf(e.partial, workers*k)

	run := startSolve(cfg, n, k, workers)
	c := cfg.Damping
	results, _ := run.sweep(e.g.NumEdges(), func(resid []float64) error {
		e.sweepPull(cur, next, jump, k, c, workers, resid)
		cur, next = next, cur
		return nil
	})
	// The swap leaves the freshest iterate in cur; remember it for the
	// next solve's buffer reuse.
	e.cur, e.next = cur, next
	for j, r := range results {
		r.Scores = make(Vector, n)
		for i := range r.Scores {
			r.Scores[i] = cur[i*k+j]
		}
	}
	return run.finish(results)
}

// sweepPull computes next ← c·Tᵀcur + (1−c)·v for every vector of
// the batch with one pass over the in-neighbor lists, and accumulates
// the per-vector L1 residual ‖next − cur‖₁ into resid. Pull-style
// sweeps write each next[y] from exactly one goroutine, so no locking
// is needed.
func (e *Engine) sweepPull(cur, next, jump []float64, k int, c float64, workers int, resid []float64) {
	n := e.g.NumNodes()
	if workers <= 1 {
		for j := 0; j < k; j++ {
			resid[j] = 0
		}
		e.pullRange(cur, next, jump, k, c, 0, n, resid)
		return
	}
	partial := e.partial[:workers*k]
	for i := range partial {
		partial[i] = 0
	}
	e.pool.run(n, func(chunk, lo, hi int) {
		e.pullRange(cur, next, jump, k, c, lo, hi, partial[chunk*k:(chunk+1)*k])
	})
	for j := 0; j < k; j++ {
		resid[j] = 0
		for w := 0; w < workers; w++ {
			resid[j] += partial[w*k+j]
		}
	}
}

// pullRange is the sweep kernel over nodes [lo, hi); acc accumulates
// the per-vector L1 residual of the range.
func (e *Engine) pullRange(cur, next, jump []float64, k int, c float64, lo, hi int, acc []float64) {
	g, inv := e.g, e.inv
	coef := 1 - c
	if k == 1 {
		// Scalar fast path: identical memory behavior to a classic
		// single-vector sweep, with the residual fused in.
		a := acc[0]
		for y := lo; y < hi; y++ {
			sum := 0.0
			for _, x := range g.InNeighbors(graph.NodeID(y)) {
				sum += cur[x] * inv[x]
			}
			nv := c*sum + coef*jump[y]
			next[y] = nv
			d := nv - cur[y]
			if d < 0 {
				d = -d
			}
			a += d
		}
		acc[0] = a
		return
	}
	if k == 2 {
		// Two-column fast path: EstimateFromCore's (p, p') pair is the
		// most common batch. Keeping both running sums in registers
		// makes the shared sweep cost barely more than a scalar one.
		a0, a1 := acc[0], acc[1]
		for y := lo; y < hi; y++ {
			sum0, sum1 := 0.0, 0.0
			for _, x := range g.InNeighbors(graph.NodeID(y)) {
				w := inv[x]
				base := int(x) * 2
				sum0 += cur[base] * w
				sum1 += cur[base+1] * w
			}
			base := y * 2
			nv0 := c*sum0 + coef*jump[base]
			nv1 := c*sum1 + coef*jump[base+1]
			next[base] = nv0
			next[base+1] = nv1
			d0 := nv0 - cur[base]
			if d0 < 0 {
				d0 = -d0
			}
			d1 := nv1 - cur[base+1]
			if d1 < 0 {
				d1 = -d1
			}
			a0 += d0
			a1 += d1
		}
		acc[0], acc[1] = a0, a1
		return
	}
	sums := make([]float64, k)
	for y := lo; y < hi; y++ {
		for j := range sums {
			sums[j] = 0
		}
		for _, x := range g.InNeighbors(graph.NodeID(y)) {
			w := inv[x]
			base := int(x) * k
			for j := 0; j < k; j++ {
				sums[j] += cur[base+j] * w
			}
		}
		base := y * k
		for j := 0; j < k; j++ {
			nv := c*sums[j] + coef*jump[base+j]
			next[base+j] = nv
			d := nv - cur[base+j]
			if d < 0 {
				d = -d
			}
			acc[j] += d
		}
	}
}

func growBuf(buf []float64, size int) []float64 {
	if cap(buf) < size {
		return make([]float64, size)
	}
	return buf[:size]
}
