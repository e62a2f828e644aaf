package testutil

import (
	"fmt"
	"math/rand"

	"spammass/internal/delta"
	"spammass/internal/goodcore"
	"spammass/internal/graph"
	"spammass/internal/webgen"
)

// SmallWeb generates the 2k-host webgen world the fold and recovery
// tests run on, with its assembled good core.
func SmallWeb() (*graph.HostGraph, []graph.NodeID, error) {
	cfg := webgen.DefaultConfig(2000)
	// The defaults are calibrated for ≥ 5k hosts: at 2k the directory
	// share rounds to zero hosts and one subculture outgrows the web.
	cfg.CoreEligibleFrac = 0.02
	cfg.SubcultureMin, cfg.SubcultureMax = 20, 60
	return Web(cfg)
}

// Web generates the webgen world cfg describes as a host graph, with
// its assembled good core.
func Web(cfg webgen.Config) (*graph.HostGraph, []graph.NodeID, error) {
	w, err := webgen.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	c, err := goodcore.Assemble(w.Names, w.DirectoryMembers)
	if err != nil {
		return nil, nil, err
	}
	h, err := graph.NewHostGraph(w.Graph, w.Names)
	return h, c.Nodes, err
}

// ChurnBatch draws one mutation batch that applies cleanly to h: up to
// two hosts removed, two created (named after tag, which must be unique
// per call so names never collide across a sequence) and cross-linked
// with survivors, and a handful of edges added and removed among the
// hosts the batch keeps. It follows delta.Apply's conflict rules — no
// edge op names a host the batch removes, none repeats an existing edge.
func ChurnBatch(rng *rand.Rand, h *graph.HostGraph, tag string) *delta.Batch {
	g := h.Graph
	n := g.NumNodes()
	gone := make(map[graph.NodeID]bool)
	b := &delta.Batch{}
	for i := rng.Intn(3); i > 0; i-- {
		x := graph.NodeID(rng.Intn(n))
		if !gone[x] {
			gone[x] = true
			b.Ops = append(b.Ops, delta.RemoveHostOp(h.Names[x]))
		}
	}
	kept := func() graph.NodeID {
		for {
			if x := graph.NodeID(rng.Intn(n)); !gone[x] {
				return x
			}
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		name := fmt.Sprintf("churn-%s-%d.example", tag, i)
		b.Ops = append(b.Ops, delta.AddHostOp(name),
			delta.AddEdgeOp(h.Names[kept()], name),
			delta.AddEdgeOp(name, h.Names[kept()]))
	}
	type edge struct{ x, y graph.NodeID }
	added := make(map[edge]bool)
	for i := 1 + rng.Intn(6); i > 0; i-- {
		x, y := kept(), kept()
		if x == y || g.HasEdge(x, y) || added[edge{x, y}] {
			continue
		}
		added[edge{x, y}] = true
		b.Ops = append(b.Ops, delta.AddEdgeOp(h.Names[x], h.Names[y]))
	}
	removed := make(map[edge]bool)
	for i := 1 + rng.Intn(6); i > 0; i-- {
		x := kept()
		out := g.OutNeighbors(x)
		if len(out) == 0 {
			continue
		}
		y := out[rng.Intn(len(out))]
		if gone[y] || removed[edge{x, y}] {
			continue
		}
		removed[edge{x, y}] = true
		b.Ops = append(b.Ops, delta.RemoveEdgeOp(h.Names[x], h.Names[y]))
	}
	return b
}

// DeltaStream draws count mutation batches against h in the shape of
// the repository benchmark's delta stream: each batch removes
// (edges / 1000 / 2) live base edges, adds as many edges absent from
// the base, and creates one host with two in-links and two out-links.
// No batch removes an edge another removed or adds one another added,
// so the batches apply in sequence, or folded together, without
// conflict. It makes the same draws as bench's genDeltaStream, which
// keeps its own copy until the benchmark calls into this package.
func DeltaStream(h *graph.HostGraph, seed int64, count int) ([]*delta.Batch, error) {
	g := h.Graph
	n := g.NumNodes()
	var srcs, dsts []graph.NodeID
	var linkers []graph.NodeID // hosts that already link out
	g.Edges(func(x, y graph.NodeID) bool {
		srcs = append(srcs, x)
		dsts = append(dsts, y)
		return true
	})
	for x := 0; x < n; x++ {
		if g.OutDegree(graph.NodeID(x)) > 0 {
			linkers = append(linkers, graph.NodeID(x))
		}
	}
	churn := max(len(srcs)/1000/2, 1)
	if len(linkers) < 2 || churn*count > len(srcs)/3 {
		return nil, fmt.Errorf("testutil: a graph of %d edges is too small for %d delta batches", len(srcs), count)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x64656c7461))
	removed := make(map[int]bool)
	type pair struct{ x, y graph.NodeID }
	added := make(map[pair]bool)
	batches := make([]*delta.Batch, 0, count)
	for k := 1; k <= count; k++ {
		b := &delta.Batch{}
		for i := 0; i < churn; i++ {
			e := rng.Intn(len(srcs))
			for removed[e] {
				e = rng.Intn(len(srcs))
			}
			removed[e] = true
			b.Ops = append(b.Ops, delta.RemoveEdgeOp(h.Names[srcs[e]], h.Names[dsts[e]]))
		}
		for i := 0; i < churn; i++ {
			var p pair
			for {
				p = pair{linkers[rng.Intn(len(linkers))], graph.NodeID(rng.Intn(n))}
				if p.x != p.y && !g.HasEdge(p.x, p.y) && !added[p] {
					break
				}
			}
			added[p] = true
			b.Ops = append(b.Ops, delta.AddEdgeOp(h.Names[p.x], h.Names[p.y]))
		}
		s := fmt.Sprintf("stream-%d.example", k)
		b.Ops = append(b.Ops, delta.AddHostOp(s))
		for i := 0; i < 2; i++ {
			in := linkers[rng.Intn(len(linkers))]
			out := graph.NodeID(rng.Intn(n))
			b.Ops = append(b.Ops, delta.AddEdgeOp(h.Names[in], s), delta.AddEdgeOp(s, h.Names[out]))
		}
		batches = append(batches, b.Dedup()) // the new host's two in- or out-links may coincide
	}
	return batches, nil
}
