// Command bench is the repository's benchmark: four workloads against
// real spamserver processes over loopback, the end-to-end metrics a
// user of the system sees, and a layer pass that explains them.
//
//	go run ./bench                         all four workloads, every metric
//	go run ./bench -sets 2                 the same twice, compared against the bounds
//	go run ./bench --workload lookup-direct --seed 1 --seconds 10 --trace 0
//
// The last form is what the benchmark driver runs: one workload, and as
// the last line of standard output one JSON object with the keys
// correct, attempted, failed and metrics — the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"
)

// defaultSeconds is the measured length of one run; BENCHMARK.json
// carries the same number as run_seconds.
const defaultSeconds = 10

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the result file: the environment stamp and every run.
type report struct {
	Env     envStamp  `json:"env"`
	Started time.Time `json:"started"`
	Runs    []*result `json:"runs"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "run one workload (lookup-direct, lookup-routed, ingest-fresh, solve-cold) and print the driver's result line; empty runs all four")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured phase of each workload")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the traced pass and reports the per-layer metrics")
	sets := flag.Int("sets", 1, "without -workload: run the whole benchmark this many times and compare the sets against the bounds")
	tiny := flag.Bool("tiny", false, "smoke-test sizes: 6k-host graphs (10k for solve-cold), one set-up per run")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *sets < 1 || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}

	// The harness holds whole graphs; collecting them less often keeps
	// its collector from running beside the load generator (quiesce
	// collects explicitly before each measured phase).
	debug.SetGCPercent(400)

	h, err := newHarness()
	if err != nil {
		logf("%v", err)
		return 1
	}
	// Children are killed and the temp directory removed on every way
	// out: return, failed check, and Ctrl-C.
	defer h.cleanup()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		logf("%s: stopping servers", sig)
		h.cleanup()
		os.Exit(130)
	}()

	tr := newTracer()
	rep := &report{Env: stampEnv(h.root, h.tmp), Started: time.Now()}
	logf("env: %d CPUs, GOMAXPROCS %d, %s, %s, kernel %s, WAL on %s, commit %s",
		rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.CPUModel, rep.Env.GoVersion, rep.Env.Kernel, rep.Env.WALFilesystem, rep.Env.GitCommit)
	code := 0
	finish := func(name string) {
		if err := tr.writeFile(filepath.Join(h.out, "trace.json")); err != nil {
			logf("writing trace.json: %v", err)
		}
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(filepath.Join(h.out, name), data, 0o644)
		}
		if err != nil {
			logf("writing %s: %v", name, err)
		}
	}

	if *workload != "" {
		res, err := runWorkload(h, tr, runOpts{workload: *workload, seed: *seed, seconds: *seconds, layers: *trace == 1, tiny: *tiny})
		if err != nil {
			logf("%v", err)
			return 1
		}
		rep.Runs = append(rep.Runs, res)
		finish(fmt.Sprintf("result-%s-trace%d.json", *workload, *trace))
		printRun(os.Stderr, res)
		defs, allowMissing := endToEnd, false
		if *trace == 1 {
			defs, allowMissing = perLayer, true
		}
		metrics, missing := pick(defs, res.Metrics, allowMissing)
		if len(missing) > 0 {
			logf("%s: harness produced no value for %v", *workload, missing)
			return 1
		}
		line, err := json.Marshal(resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics})
		if err != nil {
			logf("%v", err)
			return 1
		}
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}

	var all [][]*result
	for set := 0; set < *sets; set++ {
		var runs []*result
		for _, name := range workloadNames {
			// A single set also runs the traced pass; compared sets only
			// need the end-to-end figures.
			res, err := runWorkload(h, tr, runOpts{workload: name, seed: *seed, seconds: *seconds, layers: *sets == 1, tiny: *tiny})
			if err != nil {
				logf("%v", err)
				return 1
			}
			runs = append(runs, res)
			rep.Runs = append(rep.Runs, res)
			printRun(os.Stdout, res)
			if !res.Correct {
				code = 1
			}
		}
		all = append(all, runs)
	}
	finish("result.json")
	if *sets > 1 && !compareSets(all) {
		code = 1
	}
	return code
}

// printRun prints every metric of a run by name with its unit, the
// operation counts, and the checks.
func printRun(w *os.File, res *result) {
	fmt.Fprintf(w, "\n== %s  seed %d  %gs  attempted %d  failed %d  correct %v\n",
		res.Workload, res.Seed, res.Seconds, res.Attempted, res.Failed, res.Correct)
	for _, tier := range []struct {
		title string
		defs  []metricDef
	}{{"end to end", endToEnd}, {"per layer", perLayer}} {
		fmt.Fprintf(w, "  %s:\n", tier.title)
		for _, d := range tier.defs {
			v, ok := res.Metrics[d.Name]
			if !ok {
				continue
			}
			extra := ""
			if n := res.Samples[d.Name]; n > 0 {
				extra = fmt.Sprintf("  (n=%d)", n)
			}
			if d.Bound > 0 {
				extra += fmt.Sprintf("  bound %g%%", d.Bound*100)
			}
			fmt.Fprintf(w, "    %-38s %16.6g %-6s%s\n", d.Name, v, d.Unit, extra)
		}
	}
	for _, c := range res.Checks {
		state := "ok"
		if !c.OK {
			state = "FAILED"
		}
		fmt.Fprintf(w, "  check %-40s %s  %s\n", c.Name, state, c.Detail)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// compareSets prints, per end-to-end metric and workload, the value of
// each set, how much the worst later set is worse than the first, and
// PASS or FAIL against the metric's bound. It reports whether every
// pairing passed.
func compareSets(all [][]*result) bool {
	ok := true
	fmt.Printf("\n== %d sets compared against the bounds (worsening of the worst later set relative to the first)\n", len(all))
	for wi, name := range workloadNames {
		for _, d := range endToEnd {
			var vals []float64
			for _, set := range all {
				vals = append(vals, set[wi].Metrics[d.Name])
			}
			worst := 0.0
			for _, v := range vals[1:] {
				worse := (v - vals[0]) / vals[0]
				if d.Better == "higher" {
					worse = (vals[0] - v) / vals[0]
				}
				worst = math.Max(worst, worse)
			}
			verdict := "PASS"
			if worst > d.Bound {
				verdict = "FAIL"
				ok = false
			}
			fmt.Printf("  %-14s %-16s %s  %+7.2f%%  bound %4.0f%%  %s\n", name, d.Name, fmtVals(vals), worst*100, d.Bound*100, verdict)
		}
	}
	return ok
}

func fmtVals(vals []float64) string {
	var b bytes.Buffer
	for _, v := range vals {
		fmt.Fprintf(&b, " %12.6g", v)
	}
	return b.String()
}
