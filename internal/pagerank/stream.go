package pagerank

import (
	"bufio"
	"fmt"
	"os"

	"spammass/internal/graph"
)

// DiskGraph is a graph file in the binary format graph.WriteBinary
// writes (SMGR), opened for out-of-core solves — the regime of the
// paper's deployment, where the host graph had 979M edges. Only the
// score vectors stay resident; every Jacobi sweep streams the
// out-rows from the file once, in node order. It is safe for
// concurrent use: each solve reads the file through its own handle.
type DiskGraph struct {
	path string
	n    int
	m    int64
}

// OpenDiskGraph checks every row of the graph file at path in one
// streaming pass and records its node and edge counts. It allocates
// nothing per node the header claims, so a corrupt or hostile header
// fails on the bytes that are missing, not on an allocation.
func OpenDiskGraph(path string) (*DiskGraph, error) {
	d := &DiskGraph{path: path, n: -1}
	n, m, err := d.scan(func(graph.NodeID, []graph.NodeID) {})
	if err != nil {
		return nil, err
	}
	d.n, d.m = n, m
	return d, nil
}

// NumNodes returns the node count.
func (d *DiskGraph) NumNodes() int { return d.n }

// scan streams the file's rows to fn in node order and returns the
// node and edge counts it read. Once d is open, a file whose node count
// has changed fails before its first row, one whose edge count has
// changed after its last.
func (d *DiskGraph) scan(fn func(x graph.NodeID, adj []graph.NodeID)) (int, int64, error) {
	f, err := os.Open(d.path)
	if err != nil {
		return 0, 0, fmt.Errorf("pagerank: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10) // fixed, not sized by the header
	n, err := graph.ReadBinaryHeader(br)
	if err != nil {
		return 0, 0, fmt.Errorf("pagerank: %s: %w", d.path, err)
	}
	if d.n >= 0 && n != d.n {
		return 0, 0, fmt.Errorf("pagerank: %s changed since it was opened: %d nodes, was %d", d.path, n, d.n)
	}
	m := int64(0)
	err = graph.ScanBinaryRows(br, n, func(x graph.NodeID, adj []graph.NodeID) {
		fn(x, adj)
		m += int64(len(adj))
	})
	if err != nil {
		return 0, 0, fmt.Errorf("pagerank: %s: %w", d.path, err)
	}
	if d.n >= 0 && m != d.m {
		return 0, 0, fmt.Errorf("pagerank: %s changed since it was opened: %d edges, was %d", d.path, m, d.m)
	}
	return n, m, nil
}

// Jacobi solves (I − cTᵀ)p = (1−c)v over the file with the Jacobi
// iteration of Algorithm 1, streaming the rows once per sweep. It
// honours cfg as the in-memory solvers do (warm start, truncation,
// telemetry) and returns the same scores as Jacobi on the loaded graph,
// bit for bit, in the iterations Jacobi takes on one worker. Only
// AlgoJacobi streams: Gauss-Southwell pushes in residual order, which
// needs random access to the rows.
func (d *DiskGraph) Jacobi(v Vector, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Algorithm != AlgoJacobi {
		return nil, fmt.Errorf("pagerank: the out-of-core solve runs %s only, not %s", AlgoJacobi, cfg.Algorithm)
	}
	if err := checkBatch([]Vector{v}, cfg.WarmStarts, d.n); err != nil {
		return nil, err
	}
	cur, next := make(Vector, d.n), make(Vector, d.n)
	if cfg.WarmStarts != nil {
		copy(cur, cfg.WarmStarts[0])
	} else {
		copy(cur, v)
	}
	c := cfg.Damping
	coef := 1 - c
	run := startSolve(cfg, d.n, 1, 1)
	results, err := run.sweep(d.m, func(resid []float64) error {
		// next accumulates Σ cur[x]/out(x) over the in-neighbors x of
		// each y. Rows arrive in x order, so every sum adds its terms
		// in the order the in-memory pull sweep does.
		clear(next)
		_, _, err := d.scan(func(x graph.NodeID, adj []graph.NodeID) {
			if len(adj) == 0 {
				return
			}
			cx, w := cur[x], 1/float64(len(adj))
			for _, y := range adj {
				next[y] += cx * w
			}
		})
		if err != nil {
			return err
		}
		a := 0.0
		for y, sum := range next {
			nv := c*sum + coef*v[y]
			next[y] = nv
			diff := nv - cur[y]
			if diff < 0 {
				diff = -diff
			}
			a += diff
		}
		resid[0] = a
		cur, next = next, cur
		return nil
	})
	if err != nil {
		return nil, err
	}
	results[0].Scores = cur
	rs, err := run.finish(results)
	if rs == nil {
		return nil, err
	}
	return rs[0], err
}
