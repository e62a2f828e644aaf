// Command spammass runs the full mass-based link-spam detection
// pipeline (Algorithm 2) over a graph file and a good-core file, and
// prints the spam candidates sorted by decreasing relative mass.
//
// Usage:
//
//	spammass -graph web.graph -core web.core [-names web.names]
//	         [-tau 0.98] [-rho 10] [-gamma 0.85] [-damping 0.85]
//	         [-top 50] [-explain k] [-json] [-host a.com,b.com] [-v]
//
// With -explain k, the boosting structure behind the top k candidates
// is extracted (reverse PageRank contributions) and allied candidates
// are grouped. With -host, only the named hosts' detection records are
// printed (one JSON object per line, requires -names) — the offline
// twin of spamserver's GET /v1/host endpoint. -json switches the output to one detection record per
// line (node, host, p, p', M̃, m̃, label) for every node above ρ.
// -v streams the solver's per-iteration residuals and a solve summary
// to stderr.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"spammass/internal/cliobs"
	"spammass/internal/forensics"
	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
)

// truncate bounds the record list to top entries; top <= 0 keeps all.
func truncate(recs []obs.DetectionRecord, top int) []obs.DetectionRecord {
	if top > 0 && len(recs) > top {
		return recs[:top]
	}
	return recs
}

func main() {
	graphPath := flag.String("graph", "", "graph file (binary or text format)")
	corePath := flag.String("core", "", "good-core file: one node ID per line")
	namesPath := flag.String("names", "", "optional host-name file: one name per line")
	tau := flag.Float64("tau", 0.98, "relative mass threshold τ")
	rho := flag.Float64("rho", 10, "scaled PageRank threshold ρ")
	gamma := flag.Float64("gamma", 0.85, "core jump scaling ‖w‖ = γ")
	damping := flag.Float64("damping", 0.85, "damping factor c")
	top := flag.Int("top", 50, "print at most this many candidates (0 = all)")
	explain := flag.Int("explain", 0, "for the top-k candidates, extract the boosting structure behind them")
	jsonOut := flag.Bool("json", false, "emit detection records as JSON lines instead of a table")
	hostQuery := flag.String("host", "", "comma-separated host names: print their detection records as JSON lines and exit (requires -names)")
	verbose := flag.Bool("v", false, "print per-iteration solver residual traces to stderr")
	flag.Parse()
	if *graphPath == "" || *corePath == "" {
		die("missing -graph or -core")
	}
	if *hostQuery != "" && *namesPath == "" {
		die("-host requires -names")
	}
	// Algorithm 2 compares against τ and ρ, and every comparison with
	// NaN is false: a NaN ρ would filter out no node and a NaN τ would
	// keep none.
	finite := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			die("%s %v: want a finite threshold", name, v)
		}
	}
	finite("-tau", *tau)
	finite("-rho", *rho)

	var octx *obs.Context
	if *verbose {
		octx = obs.NewContext(nil, nil).WithLogf(obs.StderrLogf(os.Stderr))
	}

	g, _, err := graph.LoadFile(*graphPath, octx)
	if err != nil {
		die("load graph: %v", err)
	}
	core, err := cliobs.LoadNodeIDs(*corePath, g.NumNodes())
	if err != nil {
		die("load core: %v", err)
	}
	var names []string
	if *namesPath != "" {
		if names, err = cliobs.LoadLines(*namesPath); err != nil {
			die("load names: %v", err)
		}
		if len(names) != g.NumNodes() {
			die("%d names for %d nodes", len(names), g.NumNodes())
		}
	}

	opts := mass.Options{
		Solver: pagerank.Config{Damping: *damping, Epsilon: 1e-10, MaxIter: 1000, Obs: octx},
		Gamma:  *gamma,
	}
	es, err := mass.NewEstimator(g, opts)
	if err != nil {
		die("estimate: %v", err)
	}
	defer es.Close()
	est, err := es.EstimateFromCore(core)
	if err != nil {
		die("estimate: %v", err)
	}
	if *verbose {
		if stats := est.SolveStats; stats != nil {
			fmt.Fprintf(os.Stderr, "solve: %s\n", stats)
		}
	}
	dcfg := mass.DetectConfig{
		RelMassThreshold:        *tau,
		ScaledPageRankThreshold: *rho,
	}

	if *hostQuery != "" {
		hosts, err := graph.NewHostGraph(g, names)
		if err != nil {
			die("host index: %v", err)
		}
		var recs []obs.DetectionRecord
		for _, name := range strings.Split(*hostQuery, ",") {
			name = strings.TrimSpace(name)
			x, ok := hosts.NodeByName(name)
			if !ok {
				die("unknown host %q", name)
			}
			recs = append(recs, mass.RecordFor(est, x, dcfg, name))
		}
		w := bufio.NewWriter(os.Stdout)
		if err := obs.WriteJSONLines(w, recs); err != nil {
			die("encode: %v", err)
		}
		if err := w.Flush(); err != nil {
			die("write: %v", err)
		}
		return
	}

	cands := mass.Detect(est, dcfg)
	fmt.Fprintf(os.Stderr, "%d spam candidates (tau=%.2f, rho=%.1f, core %d hosts)\n",
		len(cands), *tau, *rho, len(core))

	w := bufio.NewWriter(os.Stdout)
	if *jsonOut {
		recs := truncate(mass.Records(est, dcfg, names), *top)
		if err := obs.WriteJSONLines(w, recs); err != nil {
			die("encode: %v", err)
		}
	} else {
		printTable(w, cands, names, *top)
		if *explain > 0 {
			printForensics(w, g, est, cands, names, opts, *explain)
		}
	}
	if err := w.Flush(); err != nil {
		die("write: %v", err)
	}
}

func printTable(w *bufio.Writer, cands []mass.Candidate, names []string, top int) {
	fmt.Fprintf(w, "%-10s %12s %10s", "node", "scaled PR", "rel mass")
	if names != nil {
		fmt.Fprintf(w, "  %s", "host")
	}
	fmt.Fprintln(w)
	shown := 0
	for _, c := range cands {
		if top > 0 && shown >= top {
			break
		}
		fmt.Fprintf(w, "%-10d %12.2f %10.4f", c.Node, c.ScaledPageRank, c.RelMass)
		if names != nil {
			fmt.Fprintf(w, "  %s", names[c.Node])
		}
		fmt.Fprintln(w)
		shown++
	}
}

func printForensics(w *bufio.Writer, g *graph.Graph, est *mass.Estimates, cands []mass.Candidate, names []string, opts mass.Options, explain int) {
	nameOf := func(x graph.NodeID) string {
		if names != nil {
			return names[x]
		}
		return fmt.Sprint(x)
	}
	fcfg := forensics.DefaultConfig()
	fcfg.Solver = opts.Solver
	limit := explain
	if limit > len(cands) {
		limit = len(cands)
	}
	farms, alliances, err := forensics.ExtractAll(g, est, cands[:limit], fcfg)
	if err != nil {
		die("explain: %v", err)
	}
	fmt.Fprintln(w, "\nforensics:")
	for _, f := range farms {
		fmt.Fprintf(w, "%s: booster share %.2f, %d supporters", nameOf(f.Target), f.BoosterShare, len(f.Members))
		show := 3
		if show > len(f.Members) {
			show = len(f.Members)
		}
		for _, m := range f.Members[:show] {
			fmt.Fprintf(w, " | %s %.0f%%", nameOf(m.Node), 100*m.Share)
		}
		fmt.Fprintln(w)
	}
	for _, a := range alliances {
		if len(a.Targets) < 2 {
			continue
		}
		fmt.Fprintf(w, "alliance:")
		for _, t := range a.Targets {
			fmt.Fprintf(w, " %s", nameOf(t))
		}
		fmt.Fprintln(w)
	}
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
