// Package diskgraph runs PageRank on graphs whose adjacency does not
// fit in memory — the regime of the paper's actual deployment, where
// the host graph had 979M edges and the page graph billions. The
// layout keeps only what the pull-based Jacobi sweep needs resident
// (the out-degree array and the two score vectors, 12 bytes per node)
// and streams the in-neighbor lists sequentially from disk once per
// iteration, the classic out-of-core PageRank access pattern.
//
// File layout (little-endian varints):
//
//	magic "SMDG", version, n, m
//	out-degree of every node (uvarint each)
//	for every node y: in-degree, then gap-encoded in-neighbors
package diskgraph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"spammass/internal/graph"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
)

const (
	magic   = "SMDG"
	version = 1
)

// Build writes g into the disk-graph format at path.
func Build(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("diskgraph: create: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:k])
		return err
	}
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	n := g.NumNodes()
	for _, v := range []uint64{version, uint64(n), uint64(g.NumEdges())} {
		if err := put(v); err != nil {
			return err
		}
	}
	for x := 0; x < n; x++ {
		if err := put(uint64(g.OutDegree(graph.NodeID(x)))); err != nil {
			return err
		}
	}
	// Adjacency rows use the gap codec of internal/graph
	// (AppendGapList / GapDecoder), covered by its test and fuzz corpus.
	var row []byte
	for y := 0; y < n; y++ {
		in := g.InNeighbors(graph.NodeID(y))
		if err := put(uint64(len(in))); err != nil {
			return err
		}
		row = graph.AppendGapList(row[:0], in)
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// DiskGraph is an opened on-disk graph. It is safe for sequential use
// by one goroutine.
type DiskGraph struct {
	path  string
	n     int
	m     int64
	inv   []float64 // 1/out-degree, 0 for dangling
	start int64     // file offset of the in-adjacency section
}

// Open reads the header and out-degree array of a disk graph.
func Open(path string) (*DiskGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("diskgraph: open: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("diskgraph: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("diskgraph: bad magic %q", head)
	}
	consumed := int64(len(magic))
	get := func() (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, err
		}
		consumed += int64(uvarintLen(v))
		return v, nil
	}
	ver, err := get()
	if err != nil {
		return nil, fmt.Errorf("diskgraph: version: %w", err)
	}
	if ver != version {
		return nil, fmt.Errorf("diskgraph: unsupported version %d", ver)
	}
	n64, err := get()
	if err != nil {
		return nil, fmt.Errorf("diskgraph: node count: %w", err)
	}
	if n64 > 1<<32 {
		return nil, fmt.Errorf("diskgraph: node count %d exceeds ID space", n64)
	}
	m, err := get()
	if err != nil {
		return nil, fmt.Errorf("diskgraph: edge count: %w", err)
	}
	dg := &DiskGraph{path: path, n: int(n64), m: int64(m)}
	dg.inv = make([]float64, dg.n)
	for x := 0; x < dg.n; x++ {
		d, err := get()
		if err != nil {
			return nil, fmt.Errorf("diskgraph: out-degree of %d: %w", x, err)
		}
		if d > 0 {
			dg.inv[x] = 1 / float64(d)
		}
	}
	dg.start = consumed
	return dg, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// NumNodes returns the node count.
func (dg *DiskGraph) NumNodes() int { return dg.n }

// NumEdges returns the edge count.
func (dg *DiskGraph) NumEdges() int64 { return dg.m }

// sweep performs one pull-based Jacobi iteration, streaming the
// in-adjacency from r (positioned at the adjacency section).
func (dg *DiskGraph) sweep(br *bufio.Reader, cur, next pagerank.Vector, c float64, v pagerank.Vector) error {
	edgesSeen := int64(0)
	dec := graph.NewGapDecoder(br, uint64(dg.n))
	for y := 0; y < dg.n; y++ {
		deg, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("diskgraph: in-degree of %d: %w", y, err)
		}
		if deg > uint64(dg.n) {
			return fmt.Errorf("diskgraph: node %d claims in-degree %d on a %d-node graph", y, deg, dg.n)
		}
		dec.Reset(int(deg))
		sum := 0.0
		for dec.Remaining() > 0 {
			x, err := dec.Next()
			if err != nil {
				return fmt.Errorf("diskgraph: in-neighbors of %d: %w", y, err)
			}
			sum += cur[x] * dg.inv[x]
			edgesSeen++
		}
		next[y] = c*sum + (1-c)*v[y]
	}
	if edgesSeen != dg.m {
		return fmt.Errorf("diskgraph: saw %d edges, header says %d", edgesSeen, dg.m)
	}
	return nil
}

// PageRank solves the linear PageRank system over the on-disk graph
// with the Jacobi iteration, reading the adjacency once per iteration.
func (dg *DiskGraph) PageRank(v pagerank.Vector, cfg pagerank.Config) (*pagerank.Result, error) {
	cfg = cfg.WithDefaults()
	// Written so that NaN, which compares false to everything, fails.
	if !(cfg.Damping > 0 && cfg.Damping < 1) || !(cfg.Epsilon > 0) || math.IsInf(cfg.Epsilon, 1) {
		return nil, fmt.Errorf("diskgraph: invalid solver config %+v", cfg)
	}
	if len(v) != dg.n {
		return nil, fmt.Errorf("diskgraph: jump vector has length %d, want %d", len(v), dg.n)
	}
	f, err := os.Open(dg.path)
	if err != nil {
		return nil, fmt.Errorf("diskgraph: reopen: %w", err)
	}
	defer f.Close()
	octx := cfg.Obs
	sp := octx.Span("diskgraph.pagerank")
	defer sp.End()
	if sp != nil {
		sp.SetAttr("nodes", dg.n)
		sp.SetAttr("edges", dg.m)
		sp.SetAttr("path", dg.path)
	}
	cr := &obs.CountingReader{R: f}

	cur := v.Clone()
	next := make(pagerank.Vector, dg.n)
	res := &pagerank.Result{}
	br := bufio.NewReaderSize(cr, 1<<20)
	for it := 1; it <= cfg.MaxIter; it++ {
		if _, err := f.Seek(dg.start, io.SeekStart); err != nil {
			return nil, fmt.Errorf("diskgraph: seek: %w", err)
		}
		br.Reset(cr)
		if err := dg.sweep(br, cur, next, cfg.Damping, v); err != nil {
			return nil, err
		}
		res.Residual = next.Diff1(cur)
		res.Iterations = it
		cur, next = next, cur
		if res.Residual < cfg.Epsilon {
			res.Converged = true
			break
		}
	}
	res.Scores = cur
	if sp != nil {
		sp.SetAttr("iterations", res.Iterations)
		sp.SetAttr("residual", res.Residual)
		sp.SetAttr("converged", res.Converged)
		sp.SetAttr("bytes_read", cr.N)
	}
	if !res.Converged && !cfg.AllowTruncated {
		return res, &pagerank.ErrNotConverged{
			Algorithm:  pagerank.AlgoJacobi,
			Iterations: res.Iterations,
			Residual:   res.Residual,
			Epsilon:    cfg.Epsilon,
		}
	}
	return res, nil
}
