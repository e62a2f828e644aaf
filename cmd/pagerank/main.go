// Command pagerank computes linear PageRank over a graph file and
// prints the top-scoring nodes, or the full score vector with -all.
// With -core it computes the core-based PageRank p' instead, biased to
// a good core read from a file of node IDs (one per line), scaled to
// ‖w‖ = gamma. Graph files may be text edge lists or the compact
// binary format (SMGR); either is loaded into memory.
//
// Usage:
//
//	pagerank -graph web.graph [-core web.core] [-gamma 0.85]
//	         [-damping 0.85] [-epsilon 1e-10] [-top 20 | -all] [-v]
//
// Every graph is solved with the Jacobi iteration of Algorithm 1. To
// solve a binary graph too large to load, open it through
// pagerank.OpenDiskGraph, which streams the same file once per sweep.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"

	"spammass/internal/cliobs"
	"spammass/internal/graph"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
)

func main() {
	graphPath := flag.String("graph", "", "graph file (binary or text format)")
	corePath := flag.String("core", "", "optional good-core file: one node ID per line")
	gamma := flag.Float64("gamma", 0.85, "core jump scaling ‖w‖ (0 = plain 1/n entries)")
	damping := flag.Float64("damping", 0.85, "damping factor c")
	epsilon := flag.Float64("epsilon", 1e-10, "L1 convergence bound")
	top := flag.Int("top", 20, "print the top-k nodes by score")
	all := flag.Bool("all", false, "print every node's score instead of the top-k")
	verbose := flag.Bool("v", false, "print per-iteration solver residual traces to stderr")
	flag.Parse()
	if *graphPath == "" {
		die("missing -graph")
	}
	var octx *obs.Context
	if *verbose {
		octx = obs.NewContext(nil, nil).WithLogf(obs.StderrLogf(os.Stderr))
	}

	g, _, err := graph.LoadFile(*graphPath, octx)
	if err != nil {
		die("load graph: %v", err)
	}
	n := g.NumNodes()
	v := pagerank.UniformJump(n)
	if *corePath != "" {
		core, err := cliobs.LoadNodeIDs(*corePath, n)
		if err != nil {
			die("load core: %v", err)
		}
		if *gamma > 0 {
			v = pagerank.ScaledCoreJump(n, core, *gamma)
		} else {
			v = pagerank.CoreJump(n, core, 1/float64(n))
		}
	}
	// AllowTruncated: the command prints converged= itself instead of
	// failing on a solve that hits MaxIter.
	cfg := pagerank.Config{Damping: *damping, Epsilon: *epsilon, MaxIter: 1000, AllowTruncated: true, Obs: octx}
	res, err := pagerank.Jacobi(g, v, cfg)
	if err != nil {
		die("solve: %v", err)
	}
	fmt.Fprintf(os.Stderr, "converged=%v iterations=%d residual=%.2e\n",
		res.Converged, res.Iterations, res.Residual)
	printScores(res.Scores, n, *damping, *top, *all)
}

func printScores(scores pagerank.Vector, n int, damping float64, top int, all bool) {
	scale := float64(n) / (1 - damping)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if all {
		for x := 0; x < n; x++ {
			fmt.Fprintf(w, "%d %.6g\n", x, scores[x]*scale)
		}
		return
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return scores[order[i]] > scores[order[j]] })
	if top > n {
		top = n
	}
	fmt.Fprintf(w, "%-12s %12s\n", "node", "scaled score")
	for _, x := range order[:top] {
		fmt.Fprintf(w, "%-12d %12.3f\n", x, scores[x]*scale)
	}
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
