// Out-of-core: run the full mass-estimation pipeline with the graph's
// adjacency on disk — the regime of the paper's real deployment, where
// the page graph had billions of edges. The graph is written once in
// the binary format every tool reads; only the score vectors stay in
// memory, and each Jacobi iteration streams its rows from disk.
//
//	go run ./examples/outofcore
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"spammass"
	"spammass/internal/goodcore"
	"spammass/internal/mass"
	"spammass/internal/pagerank"
)

func main() {
	const hosts = 60000
	fmt.Printf("generating a %d-host synthetic web...\n", hosts)
	w, err := spammass.GenerateWorld(spammass.DefaultWorldConfig(hosts))
	if err != nil {
		log.Fatal(err)
	}
	core, err := goodcore.Assemble(w.Names, w.DirectoryMembers)
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "spammass-outofcore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "web.smgr")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := spammass.WriteGraphBinary(f, w.Graph); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("disk graph: %s (%.1f MB for %d edges)\n", filepath.Base(path),
		float64(info.Size())/(1<<20), w.Graph.NumEdges())

	dg, err := spammass.OpenDiskGraph(path)
	if err != nil {
		log.Fatal(err)
	}
	cfg := pagerank.Config{Damping: 0.85, Epsilon: 1e-10, MaxIter: 300}
	n := dg.NumNodes()

	p, err := dg.Jacobi(pagerank.UniformJump(n), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("regular PageRank:    %d streaming iterations\n", p.Iterations)
	pc, err := dg.Jacobi(pagerank.ScaledCoreJump(n, core.Nodes, 0.85), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("core-based PageRank: %d streaming iterations\n", pc.Iterations)

	est := mass.Derive(p.Scores, pc.Scores, 0.85)
	cands := mass.Detect(est, mass.DetectConfig{RelMassThreshold: 0.9, ScaledPageRankThreshold: 10})
	spam := 0
	for _, c := range cands {
		if w.IsSpam(c.Node) || w.Info[c.Node].Anomalous {
			spam++
		}
	}
	fmt.Printf("detection over the disk-resident graph: %d candidates, %.0f%% spam-or-known-anomaly\n",
		len(cands), 100*float64(spam)/float64(len(cands)))

	// Cross-check a few scores against the in-memory solver.
	mem, err := spammass.PageRank(w.Graph, cfg)
	if err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for x := range mem.Scores {
		d := mem.Scores[x] - p.Scores[x]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	fmt.Printf("max difference vs in-memory solver: %.2e (identical fixpoint)\n", worst)
}
