// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 4) on the synthetic host graph, plus the
// ablations DESIGN.md calls out. Each experiment is a method on Env;
// the cmd/experiments binary drives these methods at full scale, the
// package's tests at reduced scale.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"spammass/internal/eval"
	"spammass/internal/goodcore"
	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
	"spammass/internal/webgen"
)

// Config scales the experimental environment.
type Config struct {
	// Hosts is the size of the synthetic host graph (the paper's is
	// 73.3M; the default experiment scale is 150k).
	Hosts int
	// Seed drives the generator and all sampling.
	Seed int64
	// SampleFrac is the evaluation sample rate over T (paper: ~0.1%,
	// 892 of 883,328; at our scale a larger fraction keeps the sample
	// near the paper's ~900 hosts).
	SampleFrac float64
	// Rho is the scaled PageRank threshold defining T (paper: 10).
	Rho float64
	// Gamma scales the core-based jump vector (paper: 0.85).
	Gamma float64
	// Groups is the number of sample groups (paper: 20).
	Groups int
	// Solver configures all PageRank computations.
	Solver pagerank.Config
}

// DefaultConfig returns the full experiment scale.
func DefaultConfig() Config {
	return Config{
		Hosts:      150000,
		Seed:       1,
		SampleFrac: 0.40,
		Rho:        10,
		Gamma:      0.85,
		Groups:     20,
		Solver:     pagerank.Config{Damping: 0.85, Epsilon: 1e-10, MaxIter: 300},
	}
}

// Env is the shared experimental environment: the generated world,
// the assembled good core, the two PageRank vectors, the mass
// estimates, the high-PageRank set T, and the judged sample T'.
type Env struct {
	Cfg   Config
	World *webgen.World
	Core  *goodcore.Core
	Est   *mass.Estimates
	// Estimator is the shared mass estimator bound to the world graph.
	// Every experiment method that re-estimates on the same graph goes
	// through it, reusing the solver engine's cached out-degree and
	// dangling state across all solves.
	Estimator *mass.Estimator
	T         []graph.NodeID
	Sample    []eval.SampleHost
	Groups    []eval.Group
}

// NewEnv generates the world and runs the shared computations. The
// setup phases (world generation, core assembly, mass estimation,
// sampling) are recorded as child spans of cfg.Solver.Obs's root.
func NewEnv(cfg Config) (*Env, error) {
	// The context pointer is shared, not copied: the Estimator keeps it
	// for its lifetime, so a driver that re-roots the context per
	// experiment (Context.SetRoot) re-roots the solver spans too. Setup
	// scoping therefore also goes through SetRoot.
	octx := cfg.Solver.Obs
	sp := octx.Span("experiments.setup")
	defer sp.End()
	prev := octx.SetRoot(sp)
	defer octx.SetRoot(prev)

	gen := octx.Span("experiments.generate_world")
	wcfg := webgen.DefaultConfig(cfg.Hosts)
	wcfg.Seed = cfg.Seed
	world, err := webgen.Generate(wcfg)
	if err != nil {
		gen.End()
		return nil, fmt.Errorf("experiments: generating world: %w", err)
	}
	if gen != nil {
		gen.SetAttr("hosts", world.Graph.NumNodes())
		gen.SetAttr("edges", world.Graph.NumEdges())
		gen.SetAttr("seed", cfg.Seed)
	}
	gen.End()

	asm := octx.Span("experiments.assemble_core")
	core, err := goodcore.Assemble(world.Names, world.DirectoryMembers)
	if err != nil {
		asm.End()
		return nil, fmt.Errorf("experiments: assembling core: %w", err)
	}
	if asm != nil {
		asm.SetAttr("core_size", len(core.Nodes))
	}
	asm.End()

	estor, err := mass.NewEstimator(world.Graph, mass.Options{Solver: cfg.Solver, Gamma: cfg.Gamma})
	if err != nil {
		return nil, fmt.Errorf("experiments: building estimator: %w", err)
	}
	est, err := estor.EstimateFromCore(core.Nodes)
	if err != nil {
		estor.Close()
		return nil, fmt.Errorf("experiments: estimating mass: %w", err)
	}
	env := &Env{Cfg: cfg, World: world, Core: core, Est: est, Estimator: estor}

	smp := octx.Span("experiments.sample")
	env.T = mass.FilterByPageRank(est, cfg.Rho)
	k := int(cfg.SampleFrac * float64(len(env.T)))
	if k < cfg.Groups {
		k = min(len(env.T), cfg.Groups)
	}
	jc := eval.DefaultJudgeConfig()
	jc.Seed = cfg.Seed + 7
	env.Sample, err = eval.Sample(env.T, k, est, world, jc)
	if err != nil {
		smp.End()
		estor.Close()
		return nil, fmt.Errorf("experiments: sampling T: %w", err)
	}
	env.Groups, err = eval.SplitGroups(env.Sample, cfg.Groups)
	if err != nil {
		smp.End()
		estor.Close()
		return nil, fmt.Errorf("experiments: grouping sample: %w", err)
	}
	if smp != nil {
		smp.SetAttr("t_size", len(env.T))
		smp.SetAttr("sample_size", len(env.Sample))
		smp.SetAttr("groups", len(env.Groups))
	}
	smp.End()
	return env, nil
}

// Obs exposes the observability context shared by the Env's solver
// configuration, so experiments can hang their own spans and metrics
// off the same registry and trace tree.
func (e *Env) Obs() *obs.Context { return e.Cfg.Solver.Obs }

// Engine exposes the shared solver engine bound to the world graph.
func (e *Env) Engine() *pagerank.Engine { return e.Estimator.Engine() }

// Close releases the shared solver engine's worker pool. The Env must
// not be used afterwards.
func (e *Env) Close() { e.Estimator.Close() }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// estimateWithCore derives mass estimates for an alternative core,
// reusing the already-computed regular PageRank vector and
// warm-starting the core-based solve from the baseline one.
func (e *Env) estimateWithCore(core []graph.NodeID) (*mass.Estimates, error) {
	return e.Estimator.Recompute(e.Est, core)
}

// estimateWithCores is the batched form: all core variants share one
// in-neighbor sweep per iteration (Engine.SolveMany), which is how the
// core-size and stability experiments amortize their solves.
func (e *Env) estimateWithCores(cores [][]graph.NodeID) ([]*mass.Estimates, error) {
	return e.Estimator.RecomputeMany(e.Est, cores)
}

// resample judges a fresh sample against alternative estimates but the
// same sampled node set, so core variants are compared on identical
// hosts (the Section 4.5 methodology: "we used the same evaluation
// sample T' and Algorithm 2").
func (e *Env) resample(est *mass.Estimates) []eval.SampleHost {
	out := make([]eval.SampleHost, len(e.Sample))
	copy(out, e.Sample)
	for i := range out {
		x := out[i].Node
		out[i].RelMass = est.Rel[x]
		out[i].AbsMass = est.ScaledAbsMass(x)
	}
	sortSample(out)
	return out
}

func sortSample(s []eval.SampleHost) {
	sort.Slice(s, func(i, j int) bool { return s[i].RelMass < s[j].RelMass })
}

// section prints a titled divider.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
