package serve

import (
	"context"
	"fmt"

	"spammass/internal/delta"
	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
)

// DeltaBuilderConfig configures the standard incremental build path.
type DeltaBuilderConfig struct {
	// Solver configures the warm re-estimation; γ and the detection
	// thresholds are carried over from the previous snapshot's config,
	// so a delta apply never changes the estimation parameters —
	// only the graph.
	Solver pagerank.Config
	// Obs receives the delta spans and the delta.* metrics.
	Obs *obs.Context
}

// DeltaFold is the delta build in its two stages: Stage applies one
// mutation batch to the carried host graph, Solve re-estimates once on
// the graph the staged batches left. p and p' depend only on that graph
// and the core, so the live apply is the one-batch fold and crash
// recovery folds its whole WAL suffix: k merge passes, one solve.
type DeltaFold struct {
	base  *Snapshot
	hosts *graph.HostGraph
	core  []graph.NodeID
	// remap is the composed monotone base→current node map (-1: the
	// host was removed along the way); nil until the first Stage.
	remap  []int64
	staged int
	stats  delta.Stats
}

// NewDeltaFold starts a fold on base with nothing staged.
func NewDeltaFold(base *Snapshot) *DeltaFold {
	return &DeltaFold{base: base, hosts: base.HostGraph(), core: base.Core()}
}

// Stage applies batch in one merge pass. A failing batch — a conflict,
// or one that leaves no good core (mass estimation is undefined without
// Ṽ⁺) — leaves the fold untouched: the caller logs it and stages the next.
func (f *DeltaFold) Stage(batch *delta.Batch) error {
	res, err := delta.Apply(f.hosts, batch)
	if err != nil {
		return fmt.Errorf("apply delta: %w", err)
	}
	core := res.RemapNodes(f.core)
	if len(core) == 0 {
		return fmt.Errorf("serve: delta leaves no good core (the previous snapshot carried %d core nodes; the delta path needs SnapshotConfig.Core)", len(f.core))
	}
	f.hosts, f.core = res.Hosts, core
	f.remap = delta.ComposeRemap(f.remap, res.Remap)
	f.staged++
	f.stats.Add(res.Stats)
	return nil
}

// Solve packages the folded graph (at least one batch staged) as the
// next generation: the base's solved (p, p') are carried through the
// composed remap (mass.RemapWarmStart), the estimator re-solves
// warm-started from them, and the staged batches are counted.
func (f *DeltaFold) Solve(ctx context.Context, cfg DeltaBuilderConfig, epoch int64) (*Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Under the refresher's (or a synchronous admin delta's) span tree.
	octx := obs.RequestOr(ctx, cfg.Obs)
	sp := octx.Span("serve.delta_build")
	defer sp.End()
	sp.SetAttr("batches", f.staged)
	sp.SetAttr("stats", f.stats.String())
	gamma := f.base.Config().Gamma
	warm, err := mass.RemapWarmStart(f.base.Estimates(), f.remap, f.hosts.Graph.NumNodes(), f.core, gamma)
	if err != nil {
		return nil, fmt.Errorf("remap warm start: %w", err)
	}
	if cfg.Solver.Obs == nil {
		cfg.Solver.Obs = octx.In(sp)
	}
	es, err := mass.NewEstimator(f.hosts.Graph, mass.Options{Solver: cfg.Solver, Gamma: gamma})
	if err != nil {
		return nil, fmt.Errorf("estimator: %w", err)
	}
	defer es.Close()
	est, err := es.EstimateFromCoreWarm(f.core, warm)
	if err != nil {
		return nil, fmt.Errorf("warm estimate: %w", err)
	}
	octx.Logf("serve: delta %s → %d hosts", f.stats, f.hosts.Graph.NumNodes())
	octx.Counter("delta.batches_total").Add(int64(f.staged))
	octx.Counter("delta.applied_edges_total").Add(f.stats.AppliedEdges())
	octx.Counter("delta.hosts_added_total").Add(int64(f.stats.HostsAdded))
	octx.Counter("delta.hosts_removed_total").Add(int64(f.stats.HostsRemoved))
	scfg := f.base.Config()
	scfg.Core = f.core
	scfg.CoreSize = len(f.core)
	return NewSnapshot(f.hosts, est, scfg, epoch)
}

// NewDeltaBuilder returns the standard DeltaApplyFunc: the one-batch
// fold. The previous snapshot must carry its core.
func NewDeltaBuilder(cfg DeltaBuilderConfig) DeltaApplyFunc {
	return func(ctx context.Context, prev *Snapshot, epoch int64, batch *delta.Batch) (*Snapshot, error) {
		fold := NewDeltaFold(prev)
		if err := fold.Stage(batch); err != nil {
			return nil, err
		}
		return fold.Solve(ctx, cfg, epoch)
	}
}
