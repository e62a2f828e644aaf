package analysis

// This file is the data-flow half of the shared flow-analysis layer: a
// generic forward worklist solver over the CFG, with optional per-edge
// refinement so branch conditions like `sp != nil` or `mu.TryLock()`
// can specialize the fact on each outgoing edge. spanend and lockbal
// are built on it.

// FlowProblem describes one forward dataflow problem over a CFG with
// fact type F. Facts must be treated as immutable by Transfer and
// Edge: return a fresh value instead of mutating the input, so block
// in-facts stay valid across worklist iterations.
type FlowProblem[F any] struct {
	// Entry is the fact at function entry.
	Entry F
	// Transfer applies one block's nodes to the incoming fact.
	Transfer func(b *Block, in F) F
	// Edge, when non-nil, refines the block's out-fact on the edge to
	// Succs[succ] (branch-condition specialization). It receives the
	// out-fact returned by Transfer.
	Edge func(b *Block, succ int, out F) F
	// Merge joins the facts of two incoming edges.
	Merge func(a, b F) F
	// Equal reports whether two facts are equal (fixpoint test).
	Equal func(a, b F) bool
}

// FlowResult carries the solved facts: In[b] is the merged fact at
// block entry, Out[b] the fact after the block's transfer. Blocks
// unreachable from Entry are absent from both maps.
type FlowResult[F any] struct {
	In, Out map[*Block]F
}

// ForwardSolve runs the worklist algorithm to a fixpoint. The solver
// visits only blocks reachable from cfg.Entry; facts for unreachable
// blocks are simply absent, so analyzers never report from dead code.
func ForwardSolve[F any](cfg *CFG, p FlowProblem[F]) *FlowResult[F] {
	res := &FlowResult[F]{In: map[*Block]F{}, Out: map[*Block]F{}}
	seeded := map[*Block]bool{cfg.Entry: true}
	res.In[cfg.Entry] = p.Entry
	work := []*Block{cfg.Entry}
	inQueue := map[*Block]bool{cfg.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inQueue[b] = false
		out := p.Transfer(b, res.In[b])
		res.Out[b] = out
		for i, s := range b.Succs {
			f := out
			if p.Edge != nil {
				f = p.Edge(b, i, out)
			}
			if seeded[s] {
				merged := p.Merge(res.In[s], f)
				if p.Equal(merged, res.In[s]) {
					continue
				}
				res.In[s] = merged
			} else {
				seeded[s] = true
				res.In[s] = f
			}
			if !inQueue[s] {
				inQueue[s] = true
				work = append(work, s)
			}
		}
	}
	return res
}
