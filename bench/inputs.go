package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"spammass/internal/delta"
	"spammass/internal/goodcore"
	"spammass/internal/graph"
	"spammass/internal/webgen"
)

// fileSet names the three input files one spamserver boots from.
type fileSet struct {
	graph, names, core string
}

// args renders the file set as spamserver flags.
func (f fileSet) args() []string {
	return []string{"-graph", f.graph, "-names", f.names, "-core", f.core}
}

// world is one generated web: the host graph with its good core, as
// the harness keeps it in memory for reference solves and the layer
// pass. The program under test sees only the files written from it.
type world struct {
	hosts *graph.HostGraph
	core  []graph.NodeID
	files fileSet
}

// genWorld generates a host graph of n hosts from the seed (webgen's
// calibrated default mix) and assembles its good core the way the
// paper does (directory members, .gov, .edu).
func genWorld(n int, seed int64) (*world, error) {
	cfg := webgen.DefaultConfig(n)
	cfg.Seed = seed
	w, err := webgen.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate %d hosts: %w", n, err)
	}
	h, err := graph.NewHostGraph(w.Graph, w.Names)
	if err != nil {
		return nil, err
	}
	core, err := goodcore.Assemble(w.Names, w.DirectoryMembers)
	if err != nil {
		return nil, err
	}
	return &world{hosts: h, core: core.Nodes}, nil
}

// writeFile writes one input file through a buffered writer, checking
// every error on the way out.
func writeFile(path string, fill func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := fill(bw); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// writeWorld writes <prefix>.graph (binary), .names and .core — the
// formats cmd/genweb writes and spamserver loads.
func writeWorld(prefix string, h *graph.HostGraph, core []graph.NodeID) (fileSet, error) {
	fs := fileSet{graph: prefix + ".graph", names: prefix + ".names", core: prefix + ".core"}
	if err := writeFile(fs.graph, func(w *bufio.Writer) error { return graph.WriteBinary(w, h.Graph) }); err != nil {
		return fs, err
	}
	if err := writeFile(fs.names, func(w *bufio.Writer) error {
		for _, name := range h.Names {
			if _, err := fmt.Fprintln(w, name); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fs, err
	}
	err := writeFile(fs.core, func(w *bufio.Writer) error {
		for _, x := range core {
			if _, err := fmt.Fprintln(w, x); err != nil {
				return err
			}
		}
		return nil
	})
	return fs, err
}

// shardedWorld is a world split for the two-shard serving tier.
type shardedWorld struct {
	part  *graph.HostPartition
	parts []*world // parts[s] is shard s's graph, core and files
}

// partitionWorld splits w with the serving tier's partitioner and maps
// the good core through it: a core host lands in the core of the shard
// that owns it, under its shard-local ID.
func partitionWorld(w *world, shards int) (*shardedWorld, error) {
	p, err := graph.PartitionHosts(w.hosts, shards)
	if err != nil {
		return nil, err
	}
	sw := &shardedWorld{part: p, parts: make([]*world, shards)}
	for s := range sw.parts {
		sw.parts[s] = &world{hosts: p.Parts[s]}
	}
	for _, x := range w.core {
		s := p.Shard[x]
		sw.parts[s].core = append(sw.parts[s].core, p.Local[x])
	}
	for s, part := range sw.parts {
		if len(part.core) == 0 {
			return nil, fmt.Errorf("shard %d received no good-core hosts", s)
		}
	}
	return sw, nil
}

// deltaStream is a conflict-free sequence of mutation batches against
// one base graph. Batch k (1-based) carries the sentinel host
// bench-<k>.example, whose first 200 marks the batch as served.
type deltaStream struct {
	batches []*delta.Batch
	bodies  [][]byte // batches in the delta text format, as POSTed
}

func sentinelName(k int) string { return fmt.Sprintf("bench-%d.example", k) }

// genDeltaStream builds count batches against h. Each batch churns
// 0.1% of the base edges — half removals of live edges, half additions
// of absent ones — and adds one sentinel host with two in-links and two
// out-links. The stream stays valid without replaying it: a removed
// edge is a base edge no earlier batch removed, an added edge is
// neither a base edge nor added before, so no batch conflicts with the
// graph its predecessors leave behind (TestDeltaStreamApplies holds the
// generator to that with delta.Apply on a shadow graph).
func genDeltaStream(h *graph.HostGraph, seed int64, count int) (*deltaStream, error) {
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
	if len(srcs) < 2*count || len(linkers) < 2 {
		return nil, fmt.Errorf("graph of %d edges is too small for %d delta batches", len(srcs), count)
	}
	churn := len(srcs) / 1000 / 2 // edges removed, and added, per batch
	if churn < 1 {
		churn = 1
	}
	// Removing more than a third of the base edges over the stream would
	// stop being churn; the sizes the workloads use stay far below it.
	if churn*count > len(srcs)/3 {
		return nil, fmt.Errorf("%d batches of %d removals exhaust a graph of %d edges", count, churn, len(srcs))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x64656c7461)) // "delta"
	removed := make(map[int]bool)
	type pair struct{ x, y graph.NodeID }
	added := make(map[pair]bool)
	ds := &deltaStream{}
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
		s := sentinelName(k)
		b.Ops = append(b.Ops, delta.AddHostOp(s))
		for i := 0; i < 2; i++ {
			in := linkers[rng.Intn(len(linkers))]
			out := graph.NodeID(rng.Intn(n))
			b.Ops = append(b.Ops, delta.AddEdgeOp(h.Names[in], s), delta.AddEdgeOp(s, h.Names[out]))
		}
		b = b.Dedup() // the two sentinel in- or out-links may coincide
		var body bytes.Buffer
		if err := delta.WriteText(&body, b); err != nil {
			return nil, fmt.Errorf("batch %d: %w", k, err)
		}
		ds.batches = append(ds.batches, b)
		ds.bodies = append(ds.bodies, body.Bytes())
	}
	return ds, nil
}

// shadowAfter returns the graph the first k batches of the stream leave
// behind, by applying them to h as one merged batch: the stream is
// conflict-free against the base, so the merge is too.
func (ds *deltaStream) shadowAfter(h *graph.HostGraph, core []graph.NodeID, k int) (*graph.HostGraph, []graph.NodeID, error) {
	merged := &delta.Batch{}
	for _, b := range ds.batches[:k] {
		merged.Ops = append(merged.Ops, b.Ops...)
	}
	if merged.NumOps() == 0 {
		return h, core, nil
	}
	res, err := delta.Apply(h, merged)
	if err != nil {
		return nil, nil, err
	}
	return res.Hosts, res.RemapNodes(core), nil
}

// writeDeltaFiles writes each batch body as <dir>/delta-<k>.txt, so the
// generated stream can be inspected (and compared byte for byte across
// two runs of one seed).
func (ds *deltaStream) writeDeltaFiles(dir string) error {
	for i, body := range ds.bodies {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("delta-%05d.txt", i+1)), body, 0o644); err != nil {
			return err
		}
	}
	return nil
}
