package mass

import (
	"fmt"

	"spammass/internal/graph"
	"spammass/internal/pagerank"
)

// WarmStart carries per-solve initial guesses for the two PageRank
// computations of Definition 3: P seeds the uniform-jump solve and
// PCore seeds the γ-scaled core solve. Build one with RemapWarmStart
// from a previous generation's estimates; pass it to
// EstimateFromCoreWarm.
type WarmStart struct {
	P     pagerank.Vector
	PCore pagerank.Vector
}

// RemapWarmStart maps a previous generation's solved vectors onto the
// node set of the next generation, producing the warm start for an
// incremental re-estimation after a graph delta.
//
// remap is delta.Result.Remap: remap[old] is the node's ID in the new
// graph, or -1 if the host was removed. n is the new graph's node
// count and core/gamma describe the next solve's core jump (the
// carried-forward core in the new ID space). Surviving nodes keep
// their previous scores; nodes that are new in this generation are
// seeded at their jump-vector values — 1/n for the uniform solve, the
// core-jump weight (normally 0, since a brand-new host is not in the
// good core) for the core solve — exactly where a cold solve would
// start them.
//
// With churn touching a small fraction of the graph, the seed is
// already close to the new fixpoint and the solver converges in a
// fraction of the cold iteration count; the result is identical to a
// cold solve up to the convergence tolerance.
func RemapWarmStart(prev *Estimates, remap []int64, n int, core []graph.NodeID, gamma float64) (*WarmStart, error) {
	if prev == nil {
		return nil, fmt.Errorf("mass: nil previous estimates")
	}
	if len(remap) != prev.N() {
		return nil, fmt.Errorf("mass: remap covers %d nodes, previous estimates cover %d", len(remap), prev.N())
	}
	if err := validateFraction("gamma", gamma); err != nil {
		return nil, err
	}
	w := &WarmStart{
		P:     pagerank.UniformJump(n),
		PCore: coreJump(n, core, gamma),
	}
	for old, new := range remap {
		if new < 0 {
			continue
		}
		if new >= int64(n) {
			return nil, fmt.Errorf("mass: remap sends node %d to %d, outside graph of %d nodes", old, new, n)
		}
		w.P[new] = prev.P[old]
		w.PCore[new] = prev.PCore[old]
	}
	return w, nil
}

// EstimateFromCoreWarm is EstimateFromCore seeded from a previous
// generation's solutions: the batched (p, p') solve starts from
// warm.P and warm.PCore instead of the jump vectors, on the configured
// solver, to the configured ε. The solver copies the seeds, so warm is
// left as the caller passed it. A nil warm start falls back to the
// cold path, so callers can pass through whatever RemapWarmStart gave
// them.
func (es *Estimator) EstimateFromCoreWarm(core []graph.NodeID, warm *WarmStart) (*Estimates, error) {
	return es.estimateFromCore(core, warm)
}
