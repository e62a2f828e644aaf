// Command experiments regenerates every table and figure of the
// paper's evaluation section on a synthetic host graph, plus the
// ablations documented in DESIGN.md.
//
// Usage:
//
//	experiments [-hosts n] [-seed s] [-run list] [-rho r] [-gamma g]
//	            [-sample f] [-csv dir] [-md-report out.md] [-v]
//
// -run selects experiments by name (comma separated) from:
//
//	fig1 fig2 table1 walkthrough dataset core prdist table2 fig3
//	anomaly fig4 fig5 fig6 absmass expired scaling sweep combined
//	baselines solvers forensics discovery contentfilter adversarial
//	coregrowth stability temporal search granularity trseeds
//
// or "all" (the default).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spammass/internal/eval"
	"spammass/internal/experiments"
	"spammass/internal/obs"
	"spammass/internal/stats"
)

func main() {
	hosts := flag.Int("hosts", 150000, "number of hosts in the synthetic graph")
	seed := flag.Int64("seed", 1, "generator seed")
	run := flag.String("run", "all", "comma-separated experiment names, or 'all'")
	rho := flag.Float64("rho", 10, "scaled PageRank threshold defining T")
	gamma := flag.Float64("gamma", 0.85, "estimated good fraction for jump scaling")
	sampleFrac := flag.Float64("sample", 0.4, "evaluation sample fraction of T")
	csvDir := flag.String("csv", "", "also write figure data as CSV files into this directory")
	reportPath := flag.String("md-report", "", "write a markdown reproduction report to this file")
	verbose := flag.Bool("v", false, "print per-iteration solver residual traces to stderr")
	flag.Parse()
	// ρ defines T through comparisons, and every comparison with NaN
	// is false.
	if math.IsNaN(*rho) || math.IsInf(*rho, 0) {
		fmt.Fprintf(os.Stderr, "experiments: -rho %v: want a finite threshold\n", *rho)
		os.Exit(1)
	}
	var octx *obs.Context
	if *verbose {
		octx = obs.NewContext(nil, nil).WithLogf(obs.StderrLogf(os.Stderr))
	}

	cfg := experiments.DefaultConfig()
	cfg.Hosts = *hosts
	cfg.Seed = *seed
	cfg.Rho = *rho
	cfg.Gamma = *gamma
	cfg.SampleFrac = *sampleFrac
	cfg.Solver.Obs = octx

	selected := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		selected[strings.TrimSpace(name)] = true
	}
	want := func(name string) bool { return selected["all"] || selected[name] }

	out := os.Stdout
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "experiment %s: %v\n", name, err)
		os.Exit(1)
	}
	runExp := func(name string, f func() error) {
		if err := f(); err != nil {
			fail(name, err)
		}
	}

	// The worked examples need no generated world.
	if want("fig1") {
		runExp("fig1", func() error {
			_, err := experiments.RunFigure1(out, []int{0, 1, 2, 3, 5, 10}, cfg.Solver)
			return err
		})
	}
	if want("fig2") {
		runExp("fig2", func() error {
			_, err := experiments.RunFigure2(out, cfg.Solver)
			return err
		})
	}
	if want("table1") {
		runExp("table1", func() error {
			_, err := experiments.RunTable1(out, cfg.Solver)
			return err
		})
	}
	if want("walkthrough") {
		runExp("walkthrough", func() error {
			_, err := experiments.RunAlgorithm2Walkthrough(out, cfg.Solver)
			return err
		})
	}

	if *reportPath != "" {
		selected["dataset"] = true // force environment setup
	}
	needEnv := false
	for _, name := range []string{"dataset", "core", "prdist", "table2", "fig3", "anomaly",
		"fig4", "fig5", "fig6", "absmass", "expired", "scaling", "sweep", "combined",
		"baselines", "solvers", "forensics", "discovery", "contentfilter", "adversarial",
		"coregrowth", "stability", "temporal", "search", "granularity", "trseeds"} {
		if want(name) {
			needEnv = true
		}
	}
	if !needEnv {
		return
	}

	fmt.Fprintf(out, "\ngenerating synthetic host graph (n = %d, seed = %d)...\n", cfg.Hosts, cfg.Seed)
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		fail("setup", err)
	}
	defer env.Close()

	if want("dataset") {
		runExp("dataset", func() error { env.RunDataSet(out); return nil })
	}
	if want("core") {
		runExp("core", func() error { env.RunCore(out); return nil })
	}
	if want("prdist") {
		runExp("prdist", func() error { _, err := env.RunPRDist(out); return err })
	}
	if want("table2") {
		runExp("table2", func() error { env.RunTable2(out); return nil })
	}
	if *csvDir != "" {
		runExp("csv", func() error { return writeCSVs(env, *csvDir) })
		fmt.Fprintf(out, "wrote CSV figure data to %s\n", *csvDir)
	}
	if want("fig3") {
		runExp("fig3", func() error { env.RunFigure3(out); return nil })
	}
	if want("anomaly") {
		runExp("anomaly", func() error { _, err := env.RunAnomalyFix(out); return err })
	}
	if want("fig4") {
		runExp("fig4", func() error { env.RunFigure4(out); return nil })
	}
	if want("fig5") {
		runExp("fig5", func() error { _, err := env.RunFigure5(out); return err })
	}
	if want("fig6") {
		runExp("fig6", func() error { _, err := env.RunFigure6(out); return err })
	}
	if want("absmass") {
		runExp("absmass", func() error { env.RunAbsMass(out, 20); return nil })
	}
	if want("expired") {
		runExp("expired", func() error { _, _, err := env.RunExpired(out); return err })
	}
	if want("scaling") {
		runExp("scaling", func() error { _, err := env.RunScaling(out); return err })
	}
	if want("sweep") {
		runExp("sweep", func() error { env.RunSweep(out); return nil })
	}
	if want("combined") {
		runExp("combined", func() error { _, err := env.RunCombined(out); return err })
	}
	if want("baselines") {
		runExp("baselines", func() error { _, err := env.RunBaselines(out); return err })
	}
	if want("solvers") {
		runExp("solvers", func() error { _, err := env.RunSolvers(out); return err })
	}
	if want("forensics") {
		runExp("forensics", func() error { _, err := env.RunForensics(out, 40); return err })
	}
	if want("discovery") {
		runExp("discovery", func() error { _, err := env.RunAnomalyDiscovery(out); return err })
	}
	if want("contentfilter") {
		runExp("contentfilter", func() error { _, err := env.RunContentFilter(out); return err })
	}
	if want("adversarial") {
		runExp("adversarial", func() error {
			_, err := env.RunAdversarial(out, []int{0, 5, 10, 25, 50, 100, 250})
			return err
		})
	}
	if want("coregrowth") {
		runExp("coregrowth", func() error { _, err := env.RunCoreGrowth(out); return err })
	}
	if want("stability") {
		runExp("stability", func() error { _, err := env.RunStability(out, 5); return err })
	}
	if want("temporal") {
		runExp("temporal", func() error { _, err := env.RunTemporal(out); return err })
	}
	if want("search") {
		runExp("search", func() error { _, err := env.RunSearchImpact(out); return err })
	}
	if want("granularity") {
		runExp("granularity", func() error { _, err := env.RunGranularity(out); return err })
	}
	if want("trseeds") {
		runExp("trseeds", func() error { _, err := env.RunTrustRankSeeds(out, 30); return err })
	}
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			fail("md-report", err)
		}
		if err := env.WriteReport(f, time.Now()); err != nil {
			fail("md-report", err)
		}
		if err := f.Close(); err != nil {
			fail("md-report", err)
		}
		fmt.Fprintf(out, "wrote reproduction report to %s\n", *reportPath)
	}
}

// writeCSVs dumps the figure data (groups, precision curves, mass
// histogram, judged sample) for external plotting.
func writeCSVs(env *experiments.Env, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fill func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fill(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write("groups.csv", func(f *os.File) error {
		return eval.WriteGroupsCSV(f, env.Groups)
	}); err != nil {
		return err
	}
	if err := write("sample.csv", func(f *os.File) error {
		return eval.WriteSampleCSV(f, env.Sample)
	}); err != nil {
		return err
	}
	curves := map[string][]eval.PrecisionPoint{
		"full-core": eval.PrecisionCurve(env.Sample, eval.GroupThresholds(env.Groups)),
	}
	if variants, err := env.RunFigure5(discard{}); err == nil {
		for _, v := range variants {
			curves[v.Name] = v.Points
		}
	}
	if err := write("precision.csv", func(f *os.File) error {
		return eval.WritePrecisionCSV(f, curves)
	}); err != nil {
		return err
	}
	dist, err := eval.AnalyzeMassDistribution(env.Est, eval.DefaultMassDistributionConfig())
	if err != nil {
		return err
	}
	return write("mass_histogram.csv", func(f *os.File) error {
		return eval.WriteHistogramCSV(f, map[string][]stats.Bin{
			"positive": dist.Positive,
			"negative": dist.Negative,
		})
	})
}

// discard is a no-allocation io.Writer for silent experiment reruns.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
