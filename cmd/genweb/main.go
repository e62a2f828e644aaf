// Command genweb generates a synthetic host-level web graph with
// ground-truth spam labels and writes it to disk: the graph in the
// compact binary format, host names, labels, and the assembled good
// core as plain text companions.
//
// Usage:
//
//	genweb -hosts 150000 -seed 1 -out web
//
// writes web.graph, web.names, web.labels, and web.core.
//
// With -churn N the generator additionally advances the world N spam
// generations (Section 3.4 churn: farms abandoned, fresh ones stood up
// on recycled hosts) and writes each step's mutations as a delta file
// web.delta.1 … web.delta.N — the feed format of spamserver's
// /admin/delta endpoint.
//
// With -churn-stream N the generator writes an ingest soak feed: a
// deterministic timestamped sequence of N delta batch files spread
// evenly over one simulated week of crawl churn, web.stream.00001.delta
// … web.stream.<N>.delta, each headed by a `# t=<RFC3339>` comment,
// plus web.stream.manifest listing `<timestamp>\t<path>` in order. The
// ingest smoke test and durability benchmarks replay this feed.
//
// With -shards N the world is additionally pre-partitioned for the
// sharded serving tier: each shard s gets web.shard<s>.graph,
// web.shard<s>.names, and web.shard<s>.core holding its partition of
// the host space (graph.ShardOf over host names; cross-shard edges
// are dropped, their count reported). Boot one spamserver per shard
// on those files and front them with spamserver -role=router.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"spammass/internal/delta"
	"spammass/internal/goodcore"
	"spammass/internal/graph"
	"spammass/internal/webgen"
)

func main() {
	hosts := flag.Int("hosts", 150000, "number of hosts")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "web", "output path prefix")
	text := flag.Bool("text", false, "write the graph in text format instead of binary")
	churn := flag.Int("churn", 0, "also evolve N spam generations, writing one delta file per step")
	churnStream := flag.Int("churn-stream", 0, "also write N timestamped delta batches spread over one simulated week (ingest soak feed)")
	shards := flag.Int("shards", 0, "also write a pre-partitioned copy for an N-shard serving tier")
	configPath := flag.String("config", "", "read the generator configuration from this JSON file")
	dumpConfig := flag.Bool("dumpconfig", false, "print the default configuration as JSON and exit")
	flag.Parse()

	cfg := webgen.DefaultConfig(*hosts)
	cfg.Seed = *seed
	if *dumpConfig {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cfg); err != nil {
			die("dump config: %v", err)
		}
		return
	}
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			die("read config: %v", err)
		}
		if err := json.Unmarshal(data, &cfg); err != nil {
			die("parse config: %v", err)
		}
		if err := cfg.Validate(); err != nil {
			die("config: %v", err)
		}
	}
	w, err := webgen.Generate(cfg)
	if err != nil {
		die("generate: %v", err)
	}
	st := graph.ComputeStats(w.Graph)
	fmt.Printf("generated %d hosts, %d edges (no-in %.1f%%, no-out %.1f%%, isolated %.1f%%)\n",
		st.Nodes, st.Edges, 100*st.FracNoInlinks(), 100*st.FracNoOutlinks(), 100*st.FracIsolated())

	writeFile(*out+".graph", func(f *bufio.Writer) error {
		if *text {
			return graph.WriteText(f, w.Graph)
		}
		return graph.WriteBinary(f, w.Graph)
	})
	writeFile(*out+".names", func(f *bufio.Writer) error {
		for _, name := range w.Names {
			if _, err := fmt.Fprintln(f, name); err != nil {
				return err
			}
		}
		return nil
	})
	writeFile(*out+".labels", func(f *bufio.Writer) error {
		for x, info := range w.Info {
			if _, err := fmt.Fprintf(f, "%d %s %s\n", x, info.Kind, info.Community); err != nil {
				return err
			}
		}
		return nil
	})
	core, err := goodcore.Assemble(w.Names, w.DirectoryMembers)
	if err != nil {
		die("assemble core: %v", err)
	}
	writeFile(*out+".core", func(f *bufio.Writer) error {
		for _, x := range core.Nodes {
			if _, err := fmt.Fprintln(f, x); err != nil {
				return err
			}
		}
		return nil
	})
	fmt.Printf("wrote %s.graph, %s.names, %s.labels, %s.core (core %d hosts)\n",
		*out, *out, *out, *out, core.Size())

	if *shards > 1 {
		writeShardFiles(*out, w, core.Nodes, *shards, *text)
	}

	cur := w
	for i := 1; i <= *churn; i++ {
		next, b := evolveStep(cur, *seed+int64(i), i)
		path := fmt.Sprintf("%s.delta.%d", *out, i)
		if err := delta.WriteFile(path, b); err != nil {
			die("churn step %d: %v", i, err)
		}
		fmt.Printf("wrote %s (%d ops)\n", path, b.NumOps())
		cur = next
	}

	if *churnStream > 0 {
		writeChurnStream(*out, w, *seed, *churnStream)
	}
}

// evolveStep advances the world one spam generation and returns the
// next world with the delta batch that transforms cur into it.
func evolveStep(cur *webgen.World, seed int64, step int) (*webgen.World, *delta.Batch) {
	next, err := webgen.EvolveSpam(cur, webgen.EvolveConfig{Seed: seed})
	if err != nil {
		die("churn step %d: %v", step, err)
	}
	oldH, err := graph.NewHostGraph(cur.Graph, cur.Names)
	if err != nil {
		die("churn step %d: %v", step, err)
	}
	newH, err := graph.NewHostGraph(next.Graph, next.Names)
	if err != nil {
		die("churn step %d: %v", step, err)
	}
	b, err := delta.Diff(oldH, newH)
	if err != nil {
		die("churn step %d: diff: %v", step, err)
	}
	return next, b
}

// writeChurnStream writes the ingest soak feed: n delta batches evolved
// from the base world, stamped with simulated crawl times spread evenly
// over one week. Everything is derived from the seed and a fixed
// simulated start, so two runs with the same flags produce
// byte-identical feeds. The seeds sit in a disjoint range from -churn's
// so the two sequences differ even when both flags are given.
func writeChurnStream(out string, w *webgen.World, seed int64, n int) {
	const week = 7 * 24 * time.Hour
	start := time.Date(2006, time.March, 6, 0, 0, 0, 0, time.UTC) // fixed simulated crawl start
	step := week / time.Duration(n)
	cur := w
	writeFile(out+".stream.manifest", func(mf *bufio.Writer) error {
		for i := 1; i <= n; i++ {
			var b *delta.Batch
			cur, b = evolveStep(cur, seed+1_000_000+int64(i), i)
			ts := start.Add(time.Duration(i-1) * step)
			path := fmt.Sprintf("%s.stream.%05d.delta", out, i)
			writeFile(path, func(f *bufio.Writer) error {
				if _, err := fmt.Fprintf(f, "# t=%s\n# churn-stream step %d/%d\n", ts.Format(time.RFC3339), i, n); err != nil {
					return err
				}
				return delta.WriteText(f, b)
			})
			if _, err := fmt.Fprintf(mf, "%s\t%s\n", ts.Format(time.RFC3339), path); err != nil {
				return err
			}
		}
		return nil
	})
	fmt.Printf("wrote %s.stream.{00001..%05d}.delta + %s.stream.manifest (one simulated week)\n", out, n, out)
}

// writeShardFiles partitions the generated world over n shards with
// the serving tier's partitioner and writes each shard's subgraph,
// names, and core slice. The good core is mapped through the
// partition: a core host lands in the core file of the shard that
// owns it, under its shard-local node ID.
func writeShardFiles(out string, w *webgen.World, core []graph.NodeID, n int, text bool) {
	h, err := graph.NewHostGraph(w.Graph, w.Names)
	if err != nil {
		die("shard partition: %v", err)
	}
	p, err := graph.PartitionHosts(h, n)
	if err != nil {
		die("shard partition: %v", err)
	}
	coreBy := make([][]graph.NodeID, n)
	for _, x := range core {
		s := p.Shard[x]
		coreBy[s] = append(coreBy[s], p.Local[x])
	}
	for s := 0; s < n; s++ {
		part := p.Parts[s]
		prefix := fmt.Sprintf("%s.shard%d", out, s)
		writeFile(prefix+".graph", func(f *bufio.Writer) error {
			if text {
				return graph.WriteText(f, part.Graph)
			}
			return graph.WriteBinary(f, part.Graph)
		})
		writeFile(prefix+".names", func(f *bufio.Writer) error {
			for _, name := range part.Names {
				if _, err := fmt.Fprintln(f, name); err != nil {
					return err
				}
			}
			return nil
		})
		if len(coreBy[s]) == 0 {
			die("shard %d received no good-core hosts; use more hosts or fewer shards", s)
		}
		writeFile(prefix+".core", func(f *bufio.Writer) error {
			for _, x := range coreBy[s] {
				if _, err := fmt.Fprintln(f, x); err != nil {
					return err
				}
			}
			return nil
		})
		fmt.Printf("wrote %s.{graph,names,core}: %d hosts, core %d\n", prefix, len(part.Names), len(coreBy[s]))
	}
	fmt.Printf("partitioned %d shards, %d cross-shard edges dropped\n", n, p.CrossEdges)
}

func writeFile(path string, fill func(*bufio.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		die("create %s: %v", path, err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := fill(bw); err != nil {
		die("write %s: %v", path, err)
	}
	if err := bw.Flush(); err != nil {
		die("flush %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		die("close %s: %v", path, err)
	}
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
