package pagerank

import (
	"math"
	"slices"

	"spammass/internal/graph"
)

// solveSouthwell runs the AlgoGaussSouthwell solver. Instead of
// sweeping all m edges per iteration it relaxes nodes in residual
// order (pushRun) until ‖r‖₁ < Epsilon, with the total work bounded by
// MaxIter full-sweep equivalents. The push runs over the engine's
// block of nodes with out-links (pushBlock), and each dangling node is
// then set exactly in one pass. A column starts at x = 0, or at a copy
// of its warm start, which is never written. Pushes within a column
// are inherently sequential, but the columns of a batch share only the
// read-only graph and block, so on an engine with a worker pool they
// are pushed concurrently, one contiguous range of columns per pool
// chunk. Each column keeps its own iterate, residual and worklist, so
// its result is bit-identical to a sequential run.
//
// Result.Iterations reports worklist scans, the closest analogue of
// sweeps; Stats.EdgesSwept counts adjacency entries actually touched
// (the block's edges for a warm start's residual pass, one block
// out-list per push, and the dangling nodes' in-edges), keeping
// EdgesPerSecond honest next to sweep solvers.
//
// Callers hold e.mu and have validated cfg and the jump vectors.
func (e *Engine) solveSouthwell(vs []Vector, cfg Config) ([]*Result, error) {
	n, k, c := e.g.NumNodes(), len(vs), cfg.Damping
	// workers is the number of pool chunks run(k, …) makes, i.e. the
	// columns pushed at once.
	workers := 1
	if e.pool != nil {
		chunk := (k + e.pool.workers - 1) / e.pool.workers
		workers = (k + chunk - 1) / chunk
	}
	run := startSolve(cfg, n, k, workers)
	stats := run.stats
	b := e.block() // an engine's first push times the block's build

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
		pushRun(b, c, x, vs[j], warm != nil, cfg.Epsilon, cfg.MaxIter, onScan, st)
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

// pushBlock is the part of the system the push solves: the nodes with
// out-links (N), renumbered 0..|N|−1 in their relative order, with
// their out-lists filtered to targets in N. A dangling node's row of T
// is zero, so (I − cTᵀ)x = (1−c)v is block-triangular over (N, D): x_N
// solves the system over the N→N edges with weights 1/out(y), each
// taken over y's whole out-list, and then every dangling y follows
// exactly, in one pass, as x_y = c·Σ_{z∈in(y)} x_z/out(z) + (1−c)v_y.
// This is the dangling-node lumping of Lee–Golub–Zenios (2003) and
// Ipsen–Selee (2007). On a graph without dangling nodes the block is
// the whole graph, in the same order, and the push is unchanged.
type pushBlock struct {
	g     *graph.Graph
	inv   []float64      // 1/out(y) by node ID, 0 for dangling y
	nodes []graph.NodeID // block index → node ID, ascending
	// Block node i's out-list is adj[start[i]:start[i+1]], in block
	// indices, and winv[i] is 1/out(nodes[i]) over the whole out-list.
	start []int64
	adj   []graph.NodeID
	winv  []float64
}

// newPushBlock builds the block of g; inv is 1/out(y) by node ID.
func newPushBlock(g *graph.Graph, inv []float64) *pushBlock {
	const dangling = math.MaxUint32
	n := g.NumNodes()
	idx := make([]graph.NodeID, n) // node ID → block index, or dangling
	nb, mb := 0, int64(0)
	for y := 0; y < n; y++ {
		idx[y] = dangling
		if !g.IsDangling(graph.NodeID(y)) {
			idx[y] = graph.NodeID(nb)
			nb++
			mb += int64(g.InDegree(graph.NodeID(y)))
		}
	}
	b := &pushBlock{
		g: g, inv: inv,
		nodes: make([]graph.NodeID, 0, nb),
		start: make([]int64, 1, nb+1),
		adj:   make([]graph.NodeID, 0, mb),
		winv:  make([]float64, 0, nb),
	}
	for y := 0; y < n; y++ {
		out := g.OutNeighbors(graph.NodeID(y))
		if len(out) == 0 {
			continue
		}
		for _, z := range out {
			if i := idx[z]; i != dangling {
				b.adj = append(b.adj, i)
			}
		}
		b.nodes = append(b.nodes, graph.NodeID(y))
		b.start = append(b.start, int64(len(b.adj)))
		b.winv = append(b.winv, inv[y])
	}
	return b
}

// pushRun is the Gauss-Southwell worklist core: it pushes one column x
// in place toward the solution of x = c·Tᵀx + (1−c)·v until ‖r‖₁ ≤ tol
// or maxIter full-sweep equivalents of the block (its edges plus its
// nodes each) are spent. x has one entry per node of the graph.
//
// The push runs over the block b alone (see pushBlock), on x's first
// |N| entries in block order: a warm start's N entries are gathered
// there in place, and its dangling entries are ignored, because they
// are recomputed exactly. A warm x gets its residual
// r = c·Tᵀx + (1−c)v − x from one pass over the block's edges; a cold
// x must be 0, whose residual is (1−c)v exactly, with no pass. Then
// every node whose residual exceeds a threshold is relaxed,
// relaxations cascade, the threshold tightens and the residual is
// rescanned. Once the threshold reaches tol/(2|N|), a drained worklist
// implies ‖r‖₁ ≤ |N|·thresh ≤ tol/2. Each scan recomputes ‖r‖₁ exactly,
// so incremental tracking drift cannot accumulate across rounds.
// Finally x is scattered back to node order and every dangling node is
// set from its in-neighbors. A dangling row's residual is then 0 up to
// rounding, so ‖r‖₁ of the block is that of the whole system.
//
// onScan, if non-nil, observes ‖r‖₁ after every rescan. Scans, Pushes,
// EdgesSwept (the warm pass, the pushed out-lists and the dangling
// nodes' in-edges), InitialResidual and FinalResidual (both over the
// block) and Converged are recorded in st.
func pushRun(b *pushBlock, c float64, x, v Vector, warm bool, tol float64, maxIter int, onScan func(rsum float64), st *RefineStats) {
	n := len(b.nodes)
	m := int64(len(b.adj))
	nodes, start, adj, winv := b.nodes, b.start, b.adj, b.winv
	r := make([]float64, n)
	rsum := 0.0
	work := int64(n)
	if warm {
		// nodes[i] ≥ i, so the gather reads no entry it has written.
		for i, y := range nodes {
			x[i] = x[y]
		}
		// A scatter in ascending source order adds each in-neighbor's
		// share in the order a pull over the sorted in-list would.
		for i := 0; i < n; i++ {
			w := x[i] * winv[i]
			for _, z := range adj[start[i]:start[i+1]] {
				r[z] += w
			}
		}
		for i, y := range nodes {
			r[i] = c*r[i] + (1-c)*v[y] - x[i]
			rsum += math.Abs(r[i])
		}
		work += m
		st.EdgesSwept += m
	} else {
		for i, y := range nodes {
			r[i] = (1 - c) * v[y]
			rsum += math.Abs(r[i])
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
			out := adj[start[y]:start[y+1]]
			// winv[y] is 1/out over y's whole out-list: the share sent
			// to dangling targets leaves the block, and the dangling
			// pass collects it.
			w := c * d * winv[y]
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
	st.EdgesSwept += edges + b.setDangling(c, x, v)
	st.FinalResidual = rsum
	st.Converged = rsum <= tol
}

// setDangling scatters x's block entries back to node order, then sets
// every dangling node y to c·Σ_{z∈in(y)} x_z/out(z) + (1−c)v_y: its
// in-neighbors all have out-links, so they are final by then. It
// returns the in-edges it read.
func (b *pushBlock) setDangling(c float64, x, v Vector) int64 {
	// nodes[i] ≥ i, so going down the scatter overwrites only entries
	// it has already moved.
	for i := len(b.nodes) - 1; i >= 0; i-- {
		x[b.nodes[i]] = x[i]
	}
	g, inv := b.g, b.inv
	for y := range x {
		if !g.IsDangling(graph.NodeID(y)) {
			continue
		}
		sum := 0.0
		for _, z := range g.InNeighbors(graph.NodeID(y)) {
			sum += x[z] * inv[z]
		}
		x[y] = c*sum + (1-c)*v[y]
	}
	return g.NumEdges() - int64(len(b.adj))
}

// b2u converts a comparison to 0 or 1; the compiler lowers it to a
// flag set, not a branch.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
