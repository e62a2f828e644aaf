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
