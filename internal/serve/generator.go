package serve

import (
	"context"
	"fmt"
	"time"

	"spammass/internal/delta"
	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
)

// Generator builds every generation the server publishes: p = PR(v)
// and p′ = PR(w) on the current graph, packaged with m̃ = 1 − p′/p.
// Cold solves from x = 0 at the paper's γ and thresholds; Delta and
// Fold merge batches onto a served generation, keep its γ and
// thresholds, and warm-start from its remapped (p, p′). Spans and
// metrics go to the obs context on ctx (obs.WithRequest), which the
// Refresher attaches to every build.
type Generator struct {
	// Solver is the (p, p′) solve; its Obs is ignored.
	Solver pagerank.Config
}

// DefaultGenerator is the generator spamserver runs. Gauss-Southwell
// pushes p and p′ concurrently to ε = 3e-12, from x = 0 for a full
// refresh and from the remapped previous (p, p′) for a delta build or
// WAL recovery. ε bounds each algorithm's own residual. The push
// solves over the hosts with out-links and sets the dangling hosts
// exactly afterwards, so its whole residual sits on hosts whose error
// propagates; at equal ε it serves a larger worst error than a push
// over every host did at 1e-11. 3e-12 is the loosest of {1e-11, 5e-12,
// 3e-12, 2e-12, 1e-12} at which the worst served error is no larger
// than that push's, on the 100k world of TestServedAccuracy
// (3.17e-8 → 2.32e-8) and on a 500k one (5.83e-8 → 4.21e-8), and every
// generation stays within δ = 1e-7 of the ε = 1e-13 solution.
func DefaultGenerator() Generator {
	return Generator{Solver: pagerank.Config{Damping: 0.85, Epsilon: 3e-12, MaxIter: 1000, Algorithm: pagerank.AlgoGaussSouthwell}}
}

// Cold builds the generation at epoch from h and its good core. The
// snapshot carries core, so batches can be folded onto it.
func (g Generator) Cold(ctx context.Context, h *graph.HostGraph, core []graph.NodeID, epoch int64) (*Snapshot, error) {
	solver, gamma := g.Solver, mass.DefaultOptions().Gamma
	solver.Obs = obs.RequestContext(ctx)
	est, err := mass.EstimateFromCore(h.Graph, core, mass.Options{Solver: solver, Gamma: gamma})
	if err != nil {
		return nil, fmt.Errorf("estimate: %w", err)
	}
	return NewSnapshot(h, est, SnapshotConfig{Detect: mass.DefaultDetectConfig(), Gamma: gamma, Core: core}, epoch)
}

// Delta is the DeltaApplyFunc of the live path: the one-batch fold of
// batch onto prev, which must carry its core.
func (g Generator) Delta(ctx context.Context, prev *Snapshot, epoch int64, batch *delta.Batch) (*Snapshot, error) {
	f := g.Fold(prev)
	if err := f.Stage(batch); err != nil {
		return nil, err
	}
	return f.Solve(ctx, epoch)
}

// Fold starts a fold on base with nothing staged.
func (g Generator) Fold(base *Snapshot) *DeltaFold {
	core := make(map[string]bool)
	for _, x := range base.Core() {
		core[base.HostGraph().Names[x]] = true
	}
	return &DeltaFold{gen: g, base: base, fold: delta.NewFold(base.HostGraph()), core: core}
}

// DeltaFold is the delta build in two stages: Stage checks a batch
// against the base plus the batches staged before it, in O(batch), and
// Solve merges them in one pass and solves once. The live apply folds
// one batch; crash recovery folds its whole WAL suffix, in memory ∝ the
// suffix's net churn until the merge.
type DeltaFold struct {
	gen  Generator
	base *Snapshot
	fold *delta.Fold
	// core names the base's good-core hosts no staged batch removed; a
	// batch may not empty it.
	core   map[string]bool
	staged int
	merge  time.Duration
}

// Stage stages batch. A failing batch — a conflict, or one that leaves
// no good core (mass estimation is undefined without Ṽ⁺) — leaves the
// fold untouched: the caller logs it and stages the next.
func (f *DeltaFold) Stage(batch *delta.Batch) error {
	if len(f.core) == 0 {
		return fmt.Errorf("serve: the base snapshot carries no good core; the delta path needs SnapshotConfig.Core")
	}
	// A core name still in f.core resolves to its base host, so removing
	// the name removes that core host; a re-created name is not core.
	hit := make(map[string]bool)
	for _, op := range batch.Ops {
		if op.Kind == delta.RemoveHost && f.core[op.Src] {
			hit[op.Src] = true
		}
	}
	if len(hit) == len(f.core) {
		return fmt.Errorf("serve: delta removes the last %d good-core hosts; mass estimation needs at least one", len(hit))
	}
	if _, err := f.fold.Stage(batch); err != nil {
		return err
	}
	for name := range hit {
		delete(f.core, name)
	}
	f.staged++
	return nil
}

// Solve packages the folded graph (at least one batch staged) as the
// generation at epoch, warm-started from the base's (p, p′) carried
// through the merge's remap (mass.RemapWarmStart).
func (f *DeltaFold) Solve(ctx context.Context, epoch int64) (*Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	octx := obs.RequestContext(ctx)
	sp := octx.Span("serve.delta_build")
	defer sp.End()
	sp.SetAttr("batches", f.staged)
	msp := octx.In(sp).Span("delta.merge")
	start := time.Now()
	res, err := f.fold.Apply()
	f.merge = time.Since(start)
	msp.End()
	if err != nil {
		return nil, err
	}
	octx.Counter("delta.merges_total").Inc()
	sp.SetAttr("stats", res.Stats.String())
	hosts, core := res.Hosts, res.RemapNodes(f.base.Core())
	scfg := f.base.Config()
	warm, err := mass.RemapWarmStart(f.base.Estimates(), res.Remap, hosts.Graph.NumNodes(), core, scfg.Gamma)
	if err != nil {
		return nil, fmt.Errorf("remap warm start: %w", err)
	}
	solver := f.gen.Solver
	solver.Obs = octx.In(sp)
	es, err := mass.NewEstimator(hosts.Graph, mass.Options{Solver: solver, Gamma: scfg.Gamma})
	if err != nil {
		return nil, fmt.Errorf("estimator: %w", err)
	}
	defer es.Close()
	est, err := es.EstimateFromCoreWarm(core, warm)
	if err != nil {
		return nil, fmt.Errorf("warm estimate: %w", err)
	}
	octx.Logf("serve: delta %s → %d hosts", res.Stats, hosts.Graph.NumNodes())
	octx.Counter("delta.batches_total").Add(int64(f.staged))
	octx.Counter("delta.applied_edges_total").Add(res.Stats.AppliedEdges())
	octx.Counter("delta.hosts_added_total").Add(int64(res.Stats.HostsAdded))
	octx.Counter("delta.hosts_removed_total").Add(int64(res.Stats.HostsRemoved))
	scfg.Core = core
	return NewSnapshot(hosts, est, scfg, epoch)
}

// MergeTime returns the wall time of Solve's merge pass (zero before
// Solve), so a caller can split the build's time in its log.
func (f *DeltaFold) MergeTime() time.Duration { return f.merge }

// DeltaBuilderConfig is Generator's former name, kept only for bench/
// until the benchmark calls Generator directly.
type DeltaBuilderConfig = Generator

// NewDeltaBuilder returns g.Delta, kept only for bench/ until the
// benchmark calls Generator directly.
func NewDeltaBuilder(g Generator) DeltaApplyFunc { return g.Delta }
