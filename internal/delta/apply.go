package delta

import (
	"fmt"
	"sort"

	"spammass/internal/graph"
)

// Result carries everything an applied fold produced: the next graph
// generation, the node remapping that carries old per-node state
// (PageRank vectors, core membership) forward, and the inverse batch.
type Result struct {
	// Hosts is the mutated host graph.
	Hosts *graph.HostGraph
	// Remap[x] is the new node ID of base node x, or -1 when a staged
	// batch removed it. Surviving nodes keep their relative order — the
	// remapping is monotone — so remapping a sorted ID list keeps it
	// sorted, and hosts the fold created occupy the IDs after the last
	// survivor, in the order they were created.
	Remap []int64
	// NewNodes lists the new-graph node IDs of hosts the fold created
	// (and did not remove again), ascending.
	NewNodes []graph.NodeID
	// Stats sums the per-batch Stats of every staged batch.
	Stats Stats
	// Inverse undoes the application: applying Inverse to Hosts
	// restores the base graph up to node renumbering (host names and
	// the name-level edge set are identical; hosts that were removed
	// and restored move to the end of the ID space). A fold that
	// removed a name and later re-created it has no one-batch inverse:
	// Inverse then removes and re-adds that name, which Apply refuses.
	Inverse *Batch
}

// RemapNodes maps base node IDs onto the new graph, dropping the ones
// the fold removed. Input order is preserved; a sorted input stays
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

// pairKey identifies one edge by its endpoint tokens. A token names a
// host in the fold's mixed ID space: a base host keeps its base ID, the
// j-th host the fold created is n+j (n = base host count). Tokens are
// never reused, so a name removed and re-created gets a fresh one.
type pairKey struct{ src, dst int64 }

// Fold stages a sequence of batches against a base graph without
// materializing the intermediate generations: each Stage checks one
// batch against the base plus the net overlay of everything staged
// before it and nets it into that overlay in O(batch), and Apply builds
// the final graph in one O(n + m) merge pass. The result is exactly
// what applying the accepted batches one at a time would give — same
// names in the same ID order, same CSR, and the composed remap.
type Fold struct {
	base *graph.HostGraph
	n    int64
	// removed holds the base hosts the staged batches removed.
	removed map[graph.NodeID]bool
	// created lists every host the fold created, in creation order —
	// the order sequential application numbers them in. live maps the
	// names of the ones still present to their tokens.
	created []string
	live    map[string]int64
	// added holds the net added edges (never a base edge still in cut);
	// cut holds the base edges removed explicitly. Both endpoints of an
	// added edge are always live: removing a host purges its entries.
	added map[pairKey]bool
	cut   map[pairKey]bool
	// touch indexes added edges by endpoint token so a host removal
	// finds them without a scan; entries whose edge left added are
	// skipped when read.
	touch map[int64][]pairKey
	stats Stats
}

// NewFold starts a fold on h with nothing staged. Applying it returns
// h's graph unchanged.
func NewFold(h *graph.HostGraph) *Fold {
	return &Fold{
		base:    h,
		n:       int64(h.Graph.NumNodes()),
		removed: make(map[graph.NodeID]bool),
		live:    make(map[string]int64),
		added:   make(map[pairKey]bool),
		cut:     make(map[pairKey]bool),
		touch:   make(map[int64][]pairKey),
	}
}

// lookup resolves a host name against the folded state.
func (f *Fold) lookup(name string) (int64, bool) {
	if x, ok := f.base.NodeByName(name); ok && !f.removed[x] {
		return int64(x), true
	}
	t, ok := f.live[name]
	return t, ok
}

// isLive reports whether the j-th created host is still present: its
// name may since have been removed, or removed and created again.
func (f *Fold) isLive(j int) bool {
	t, ok := f.live[f.created[j]]
	return ok && t == f.n+int64(j)
}

// hasEdge reports whether the edge between two live tokens exists in
// the folded state.
func (f *Fold) hasEdge(k pairKey) bool {
	if f.added[k] {
		return true
	}
	return k.src < f.n && k.dst < f.n && !f.cut[k] && f.base.Graph.HasEdge(graph.NodeID(k.src), graph.NodeID(k.dst))
}

// Stage checks b against the folded state and, if it applies, nets it
// into the overlay and returns what it changed. On any conflict the
// fold is untouched and the error names the op.
//
// Conflict rules (order-independent within the batch; identical
// duplicate ops collapse first):
//
//   - AddHost of an existing host is a conflict, also when this same
//     batch removes it: removing and re-creating a name takes two
//     batches.
//   - RemoveHost of an unknown host is a conflict; removing a host
//     drops all its incident edges implicitly.
//   - AddEdge creates unknown endpoint hosts implicitly, but may not
//     reference a host this batch removes, and may not insert an edge
//     that already exists.
//   - RemoveEdge must name an existing edge between hosts this batch
//     keeps (edges incident to removed hosts are dropped implicitly,
//     so naming them is a conflict, not a convenience).
//   - Adding and removing the same edge in one batch is a conflict.
func (f *Fold) Stage(b *Batch) (Stats, error) {
	if err := b.Validate(); err != nil {
		return Stats{}, err
	}
	b = b.Dedup()

	// Pass 1: host ops, resolved against the state before this batch;
	// the hosts the batch creates get the tokens after the fold's last.
	next := f.n + int64(len(f.created))
	removing := make(map[int64]bool)
	creating := make(map[string]int64) // name -> token
	var createdNames []string
	create := func(name string) int64 {
		t := next + int64(len(createdNames))
		creating[name] = t
		createdNames = append(createdNames, name)
		return t
	}
	for _, op := range b.Ops {
		switch op.Kind {
		case AddHost:
			if _, exists := f.lookup(op.Src); exists {
				return Stats{}, fmt.Errorf("delta: %s: host already exists", op)
			}
			if _, dup := creating[op.Src]; dup {
				return Stats{}, fmt.Errorf("delta: %s: host added twice", op)
			}
			create(op.Src)
		case RemoveHost:
			// Dedup collapsed repeats, so each name is removed once.
			t, ok := f.lookup(op.Src)
			if !ok {
				return Stats{}, fmt.Errorf("delta: %s: unknown host", op)
			}
			removing[t] = true
		}
	}

	// Pass 2: edge ops. resolve may create hosts (AddEdge only), so the
	// created set keeps growing; pairs detects contradictory ops on one
	// edge.
	resolve := func(op Op, name string, canCreate bool) (int64, error) {
		if t, ok := f.lookup(name); ok {
			if removing[t] {
				return 0, fmt.Errorf("delta: %s: references removed host %q", op, name)
			}
			return t, nil
		}
		if t, ok := creating[name]; ok {
			return t, nil
		}
		if !canCreate {
			return 0, fmt.Errorf("delta: %s: unknown host %q", op, name)
		}
		return create(name), nil
	}
	pairs := make(map[pairKey]Kind)
	var adds, removes []pairKey
	for _, op := range b.Ops {
		if op.Kind != AddEdge && op.Kind != RemoveEdge {
			continue
		}
		src, err := resolve(op, op.Src, op.Kind == AddEdge)
		if err != nil {
			return Stats{}, err
		}
		dst, err := resolve(op, op.Dst, op.Kind == AddEdge)
		if err != nil {
			return Stats{}, err
		}
		key := pairKey{src, dst}
		if prev, seen := pairs[key]; seen {
			// Identical ops were deduplicated, so a second op on the
			// same pair is always the contradictory kind.
			return Stats{}, fmt.Errorf("delta: %s conflicts with earlier %s op on the same edge", op, prev)
		}
		pairs[key] = op.Kind
		switch op.Kind {
		case AddEdge:
			if f.hasEdge(key) {
				return Stats{}, fmt.Errorf("delta: %s: edge already exists", op)
			}
			adds = append(adds, key)
		case RemoveEdge:
			if !f.hasEdge(key) {
				return Stats{}, fmt.Errorf("delta: %s: edge does not exist", op)
			}
			removes = append(removes, key)
		}
	}

	// The batch applies: net it into the overlay. Host removals first,
	// counting the edges they drop while f.removed still describes the
	// state before the batch.
	st := Stats{HostsAdded: len(createdNames), HostsRemoved: len(removing), EdgesAdded: int64(len(adds)), EdgesRemoved: int64(len(removes))}
	g := f.base.Graph
	for t := range removing {
		if t < f.n {
			x := graph.NodeID(t)
			// Every live out-link, and the in-links from hosts the batch
			// keeps: an edge between two removed hosts counts once.
			for _, y := range g.OutNeighbors(x) {
				if !f.removed[y] && !f.cut[pairKey{t, int64(y)}] {
					st.EdgesRemoved++
				}
			}
			for _, s := range g.InNeighbors(x) {
				if !f.removed[s] && !removing[int64(s)] && !f.cut[pairKey{int64(s), t}] {
					st.EdgesRemoved++
				}
			}
		}
		for _, k := range f.touch[t] {
			if f.added[k] {
				delete(f.added, k)
				st.EdgesRemoved++
			}
		}
		delete(f.touch, t)
	}
	for t := range removing {
		if t < f.n {
			f.removed[graph.NodeID(t)] = true
		} else {
			delete(f.live, f.created[t-f.n])
		}
	}
	for _, name := range createdNames {
		f.live[name] = f.n + int64(len(f.created))
		f.created = append(f.created, name)
	}
	for _, k := range adds {
		if f.cut[k] {
			delete(f.cut, k) // a base edge restored
			continue
		}
		f.added[k] = true
		f.touch[k.src] = append(f.touch[k.src], k)
		f.touch[k.dst] = append(f.touch[k.dst], k)
	}
	for _, k := range removes {
		if f.added[k] {
			delete(f.added, k)
			continue
		}
		f.cut[k] = true
	}
	f.stats.Add(st)
	return st, nil
}

// Apply materializes the folded state in one merge pass: O(n + m) over
// the base CSR plus O(|overlay| log |overlay|) to organize the patches,
// never a rebuild. The result is byte-identical to rebuilding the graph
// from the mutated edge list (same CSR arrays, same host index) — the
// parity tests hold Apply to exactly that. The fold stays usable: more
// batches may be staged and applied again from the same base.
func (f *Fold) Apply() (*Result, error) {
	g := f.base.Graph
	n := int(f.n)

	// Node renumbering: survivors first, in base order, then the
	// created hosts still live, in creation order.
	removed := make([]bool, n)
	for x := range f.removed {
		removed[x] = true
	}
	remap := make([]int64, n)
	origOf := make([]graph.NodeID, 0, n-len(f.removed))
	for x := 0; x < n; x++ {
		if removed[x] {
			remap[x] = -1
			continue
		}
		remap[x] = int64(len(origOf))
		origOf = append(origOf, graph.NodeID(x))
	}
	base := int64(len(origOf))
	createdTo := make([]int64, len(f.created))
	var newNodes []graph.NodeID
	names2 := make([]string, 0, int(base)+len(f.live))
	for _, x := range origOf {
		names2 = append(names2, f.base.Names[x])
	}
	for j, name := range f.created {
		createdTo[j] = -1
		if f.isLive(j) {
			createdTo[j] = int64(len(names2))
			newNodes = append(newNodes, graph.NodeID(len(names2)))
			names2 = append(names2, name)
		}
	}
	n2 := len(names2)
	toNew := func(t int64) graph.NodeID {
		if t < f.n {
			return graph.NodeID(remap[t])
		}
		return graph.NodeID(createdTo[t-f.n])
	}

	// Organize the patches per source node: additions in new-ID space,
	// removals in base-ID space (they are matched against the base
	// adjacency during the merge).
	addsBySrc := make(map[graph.NodeID][]graph.NodeID, len(f.added))
	for k := range f.added {
		s := toNew(k.src)
		addsBySrc[s] = append(addsBySrc[s], toNew(k.dst))
	}
	for _, l := range addsBySrc {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	delsBySrc := make(map[graph.NodeID][]graph.NodeID, len(f.cut))
	for k := range f.cut {
		s := graph.NodeID(k.src)
		delsBySrc[s] = append(delsBySrc[s], graph.NodeID(k.dst))
	}
	for _, l := range delsBySrc {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}

	// The merge pass. Surviving nodes stream their base adjacency —
	// minus removed hosts and cut edges, remapped, still ascending
	// because the remapping is monotone — merged with their sorted
	// additions. Created hosts contribute their additions only.
	outStart := make([]int64, n2+1)
	outAdj := make([]graph.NodeID, 0, int(g.NumEdges())+len(f.added))
	var merged []graph.NodeID
	for y := 0; y < n2; y++ {
		merged = merged[:0]
		if int64(y) < base {
			x := origOf[y]
			dels := delsBySrc[x]
			for _, dst := range g.OutNeighbors(x) {
				if removed[dst] {
					continue
				}
				for len(dels) > 0 && dels[0] < dst {
					dels = dels[1:]
				}
				if len(dels) > 0 && dels[0] == dst {
					continue
				}
				merged = append(merged, graph.NodeID(remap[dst]))
			}
		}
		pending := addsBySrc[graph.NodeID(y)]
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

	g2, err := graph.FromCSR(outStart, outAdj)
	if err != nil {
		return nil, fmt.Errorf("delta: merged graph invalid: %w", err)
	}
	h2, err := graph.NewHostGraph(g2, names2)
	if err != nil {
		return nil, fmt.Errorf("delta: merged host graph invalid: %w", err)
	}
	return &Result{
		Hosts:    h2,
		Remap:    remap,
		NewNodes: newNodes,
		Stats:    f.stats,
		Inverse:  f.inverse(removed),
	}, nil
}

// Apply applies one batch to h and returns the next graph generation:
// the one-batch fold. Stage lists the conflict rules; on a conflict
// the graph is untouched and the error names the op.
func Apply(h *graph.HostGraph, b *Batch) (*Result, error) {
	f := NewFold(h)
	if _, err := f.Stage(b); err != nil {
		return nil, err
	}
	return f.Apply()
}

// inverse constructs the batch undoing the fold: live created hosts
// are removed (implicitly dropping the edges added to them), removed
// base hosts are re-added together with every base edge they lost, and
// the remaining net edge patches flip. Op order within the batch is
// unspecified; batches are order-independent.
func (f *Fold) inverse(removed []bool) *Batch {
	h := f.base
	inv := &Batch{}
	for j, name := range f.created {
		if f.isLive(j) {
			inv.Ops = append(inv.Ops, RemoveHostOp(name))
		}
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
	for k := range f.added {
		if k.src < f.n && k.dst < f.n {
			// Edges to created hosts go with the created host's removal.
			inv.Ops = append(inv.Ops, RemoveEdgeOp(h.Names[k.src], h.Names[k.dst]))
		}
	}
	for k := range f.cut {
		if !removed[k.src] && !removed[k.dst] {
			inv.Ops = append(inv.Ops, AddEdgeOp(h.Names[k.src], h.Names[k.dst]))
		}
	}
	return inv
}
