package delta

import (
	"fmt"
	"sort"

	"spammass/internal/graph"
)

// Result carries everything one applied batch produced: the next graph
// generation, the node remapping that carries old per-node state
// (PageRank vectors, core membership) forward, and the inverse batch.
type Result struct {
	// Hosts is the mutated host graph.
	Hosts *graph.HostGraph
	// Remap[x] is the new node ID of old node x, or -1 when the batch
	// removed it. Surviving nodes keep their relative order — the
	// remapping is monotone — so remapping a sorted ID list keeps it
	// sorted, and hosts the batch created occupy the IDs after the
	// last survivor.
	Remap []int64
	// NewNodes lists the new-graph node IDs of hosts the batch
	// created, ascending.
	NewNodes []graph.NodeID
	// Stats summarizes the realized mutations.
	Stats Stats
	// Inverse undoes the application: applying Inverse to Hosts
	// restores the original graph up to node renumbering (host names
	// and the name-level edge set are identical; hosts that were
	// removed and restored move to the end of the ID space).
	Inverse *Batch
}

// RemapNodes maps old node IDs onto the new graph, dropping the ones
// the batch removed. Input order is preserved; a sorted input stays
// sorted because the remapping is monotone.
func (r *Result) RemapNodes(ids []graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(ids))
	for _, x := range ids {
		if nx := r.Remap[x]; nx >= 0 {
			out = append(out, graph.NodeID(nx))
		}
	}
	return out
}

// ComposeRemap chains two successive Remaps: first maps generation 0
// onto generation 1, then maps generation 1 onto generation 2, and the
// result maps 0 onto 2 (-1 where either step removed the host). A nil
// first is the identity. The composition of monotone maps is monotone;
// the inputs are not modified.
func ComposeRemap(first, then []int64) []int64 {
	if first == nil {
		return then
	}
	out := make([]int64, len(first))
	for old, x := range first {
		out[old] = -1
		if x >= 0 {
			out[old] = then[x]
		}
	}
	return out
}

// pairKey identifies one edge in the mixed old/new endpoint space used
// during resolution: old survivors keep their old ID, created hosts
// get n+index.
type pairKey struct{ src, dst int64 }

// edgeOp is one resolved edge mutation: the original op (for error
// messages and inverse construction) plus its endpoint tokens.
type edgeOp struct {
	key pairKey
	op  Op
}

// Apply applies the batch to h and returns the next graph generation.
// It is one merge pass: O(n + m) over the old CSR plus O(|Δ| log |Δ|)
// to organize the mutations, never a full rebuild. The result is
// byte-identical to rebuilding the graph from the mutated edge list
// (same CSR arrays, same host index) — the parity tests hold Apply to
// exactly that.
//
// Conflict rules (order-independent within the batch; identical
// duplicate ops collapse first):
//
//   - AddHost of an existing host, or of a host removed by this same
//     batch, is a conflict.
//   - RemoveHost of an unknown host is a conflict; removing a host
//     drops all its incident edges implicitly.
//   - AddEdge creates unknown endpoint hosts implicitly, but may not
//     reference a host this batch removes, and may not insert an edge
//     that already exists.
//   - RemoveEdge must name an existing edge between hosts this batch
//     keeps (edges incident to removed hosts are dropped implicitly,
//     so naming them is a conflict, not a convenience).
//   - Adding and removing the same edge in one batch is a conflict.
//
// On any conflict the graph is untouched and the error names the op.
func Apply(h *graph.HostGraph, b *Batch) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	b = b.Dedup()
	g := h.Graph
	n := g.NumNodes()

	// Pass 1: host ops. Names resolve against the old index only; the
	// created-host namespace is tracked separately.
	removed := make([]bool, n)
	removedCount := 0
	created := make(map[string]int64) // name -> created index
	var createdNames []string
	for _, op := range b.Ops {
		switch op.Kind {
		case AddHost:
			if _, exists := h.NodeByName(op.Src); exists {
				return nil, fmt.Errorf("delta: %s: host already exists", op)
			}
			if _, dup := created[op.Src]; dup {
				return nil, fmt.Errorf("delta: %s: host added twice", op)
			}
			created[op.Src] = int64(len(createdNames))
			createdNames = append(createdNames, op.Src)
		case RemoveHost:
			x, ok := h.NodeByName(op.Src)
			if !ok {
				return nil, fmt.Errorf("delta: %s: unknown host", op)
			}
			if removed[x] {
				return nil, fmt.Errorf("delta: %s: host removed twice", op)
			}
			removed[x] = true
			removedCount++
		}
	}
	// A batch may not remove and re-create one name: that is two
	// generations, not one delta.
	for name := range created {
		if x, ok := h.NodeByName(name); ok && removed[x] {
			return nil, fmt.Errorf("delta: host %q removed and re-added in one batch", name)
		}
	}

	// Pass 2: edge ops, resolved to the mixed endpoint space. resolve
	// may create hosts (AddEdge only), so the created set keeps
	// growing; pairs detects contradictory ops on one edge.
	resolve := func(op Op, name string, create bool) (int64, error) {
		if x, ok := h.NodeByName(name); ok {
			if removed[x] {
				return 0, fmt.Errorf("delta: %s: references removed host %q", op, name)
			}
			return int64(x), nil
		}
		if j, ok := created[name]; ok {
			return int64(n) + j, nil
		}
		if !create {
			return 0, fmt.Errorf("delta: %s: unknown host %q", op, name)
		}
		j := int64(len(createdNames))
		created[name] = j
		createdNames = append(createdNames, name)
		return int64(n) + j, nil
	}
	pairs := make(map[pairKey]Kind)
	var adds, removes []edgeOp
	for _, op := range b.Ops {
		if op.Kind != AddEdge && op.Kind != RemoveEdge {
			continue
		}
		create := op.Kind == AddEdge
		src, err := resolve(op, op.Src, create)
		if err != nil {
			return nil, err
		}
		dst, err := resolve(op, op.Dst, create)
		if err != nil {
			return nil, err
		}
		key := pairKey{src, dst}
		if prev, seen := pairs[key]; seen {
			// Identical ops were deduplicated, so a second op on the
			// same pair is always the contradictory kind.
			return nil, fmt.Errorf("delta: %s conflicts with earlier %s op on the same edge", op, prev)
		}
		pairs[key] = op.Kind
		bothOld := src < int64(n) && dst < int64(n)
		switch op.Kind {
		case AddEdge:
			if bothOld && g.HasEdge(graph.NodeID(src), graph.NodeID(dst)) {
				return nil, fmt.Errorf("delta: %s: edge already exists", op)
			}
			adds = append(adds, edgeOp{key, op})
		case RemoveEdge:
			if !bothOld || !g.HasEdge(graph.NodeID(src), graph.NodeID(dst)) {
				return nil, fmt.Errorf("delta: %s: edge does not exist", op)
			}
			removes = append(removes, edgeOp{key, op})
		}
	}

	// Node renumbering: survivors first, in old order, then created
	// hosts in first-appearance order.
	remap := make([]int64, n)
	origOf := make([]graph.NodeID, 0, n-removedCount)
	for x := 0; x < n; x++ {
		if removed[x] {
			remap[x] = -1
			continue
		}
		remap[x] = int64(len(origOf))
		origOf = append(origOf, graph.NodeID(x))
	}
	base := int64(len(origOf))
	n2 := int(base) + len(createdNames)
	toNew := func(t int64) graph.NodeID {
		if t < int64(n) {
			return graph.NodeID(remap[t])
		}
		return graph.NodeID(base + (t - int64(n)))
	}

	// Organize the mutations per source node: additions in new-ID
	// space, removals in old-ID space (they are matched against the
	// old adjacency during the merge).
	addsBySrc := make(map[graph.NodeID][]graph.NodeID, len(adds))
	for _, e := range adds {
		s := toNew(e.key.src)
		addsBySrc[s] = append(addsBySrc[s], toNew(e.key.dst))
	}
	for _, l := range addsBySrc {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	delsBySrc := make(map[graph.NodeID][]graph.NodeID, len(removes))
	for _, e := range removes {
		delsBySrc[graph.NodeID(e.key.src)] = append(delsBySrc[graph.NodeID(e.key.src)], graph.NodeID(e.key.dst))
	}
	for _, l := range delsBySrc {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}

	// The merge pass. Surviving nodes stream their old adjacency —
	// minus removed hosts and explicit removals, remapped, still
	// ascending because the remapping is monotone — merged with their
	// sorted additions. Created hosts contribute their additions only.
	stats := Stats{HostsAdded: len(createdNames), HostsRemoved: removedCount, EdgesAdded: int64(len(adds))}
	outStart := make([]int64, n2+1)
	outAdj := make([]graph.NodeID, 0, int(g.NumEdges())+len(adds))
	for y := 0; y < n2; y++ {
		var merged, pending []graph.NodeID
		if int64(y) < base {
			x := origOf[y]
			dels := delsBySrc[x]
			for _, dst := range g.OutNeighbors(x) {
				if removed[dst] {
					stats.EdgesRemoved++
					continue
				}
				for len(dels) > 0 && dels[0] < dst {
					dels = dels[1:]
				}
				if len(dels) > 0 && dels[0] == dst {
					dels = dels[1:]
					stats.EdgesRemoved++
					continue
				}
				merged = append(merged, graph.NodeID(remap[dst]))
			}
			pending = addsBySrc[graph.NodeID(y)]
		} else {
			pending = addsBySrc[graph.NodeID(y)]
		}
		// Two-pointer merge of the surviving (remapped) neighbors with
		// the additions; both ascending, disjoint by validation.
		i, j := 0, 0
		for i < len(merged) || j < len(pending) {
			switch {
			case j == len(pending) || (i < len(merged) && merged[i] < pending[j]):
				outAdj = append(outAdj, merged[i])
				i++
			default:
				outAdj = append(outAdj, pending[j])
				j++
			}
		}
		outStart[y+1] = int64(len(outAdj))
	}
	// Out-links of removed hosts never entered the merge; count them.
	for x := 0; x < n; x++ {
		if removed[x] {
			stats.EdgesRemoved += int64(g.OutDegree(graph.NodeID(x)))
		}
	}

	g2, err := graph.FromCSR(outStart, outAdj)
	if err != nil {
		return nil, fmt.Errorf("delta: merged graph invalid: %w", err)
	}
	names2 := make([]string, 0, n2)
	for _, x := range origOf {
		names2 = append(names2, h.Names[x])
	}
	names2 = append(names2, createdNames...)
	h2, err := graph.NewHostGraph(g2, names2)
	if err != nil {
		return nil, fmt.Errorf("delta: merged host graph invalid: %w", err)
	}

	newNodes := make([]graph.NodeID, len(createdNames))
	for j := range createdNames {
		newNodes[j] = graph.NodeID(base + int64(j))
	}
	res := &Result{
		Hosts:    h2,
		Remap:    remap,
		NewNodes: newNodes,
		Stats:    stats,
		Inverse:  inverse(h, removed, createdNames, adds, removes, int64(n)),
	}
	return res, nil
}

// inverse constructs the batch undoing an application: created hosts
// are removed (implicitly dropping the edges added to them), removed
// hosts are re-added together with every incident edge they lost, and
// the remaining explicit edge ops flip.
func inverse(h *graph.HostGraph, removed []bool, createdNames []string, adds, removes []edgeOp, n int64) *Batch {
	inv := &Batch{}
	for _, name := range createdNames {
		inv.Ops = append(inv.Ops, RemoveHostOp(name))
	}
	for x := 0; x < len(removed); x++ {
		if !removed[x] {
			continue
		}
		inv.Ops = append(inv.Ops, AddHostOp(h.Names[x]))
		// Every out-link, including those into other removed hosts
		// (each such edge appears in exactly one out list), and the
		// in-links from survivors.
		for _, dst := range h.Graph.OutNeighbors(graph.NodeID(x)) {
			inv.Ops = append(inv.Ops, AddEdgeOp(h.Names[x], h.Names[dst]))
		}
		for _, src := range h.Graph.InNeighbors(graph.NodeID(x)) {
			if !removed[src] {
				inv.Ops = append(inv.Ops, AddEdgeOp(h.Names[src], h.Names[x]))
			}
		}
	}
	createdSet := func(t int64) bool { return t >= n }
	for _, e := range adds {
		if createdSet(e.key.src) || createdSet(e.key.dst) {
			continue // dropped implicitly by the created host's removal
		}
		inv.Ops = append(inv.Ops, RemoveEdgeOp(e.op.Src, e.op.Dst))
	}
	for _, e := range removes {
		inv.Ops = append(inv.Ops, AddEdgeOp(e.op.Src, e.op.Dst))
	}
	return inv
}
