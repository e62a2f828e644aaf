package serve

import (
	"context"
	"fmt"
	"time"

	"spammass/internal/delta"
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

// DeltaFold is the delta build in its two stages: Stage checks one
// mutation batch against the base graph plus what the fold staged
// before it, in O(batch), and Solve merges the staged batches into one
// graph and re-estimates on it once. p and p' depend only on that graph
// and the core, so the live apply is the one-batch fold and crash
// recovery folds its whole WAL suffix: one merge pass, one solve, and
// memory ∝ the net churn of the suffix until the merge.
type DeltaFold struct {
	base *Snapshot
	fold *delta.Fold
	// core names the base's good-core hosts no staged batch removed; a
	// batch may not empty it.
	core   map[string]bool
	staged int
	merge  time.Duration
}

// NewDeltaFold starts a fold on base with nothing staged.
func NewDeltaFold(base *Snapshot) *DeltaFold {
	core := make(map[string]bool)
	for _, x := range base.Core() {
		core[base.HostGraph().Names[x]] = true
	}
	return &DeltaFold{base: base, fold: delta.NewFold(base.HostGraph()), core: core}
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
// next generation: the staged batches are merged in one pass, the
// base's solved (p, p') are carried through the merge's base→final
// remap (mass.RemapWarmStart), the estimator re-solves warm-started
// from them, and the staged batches are counted.
func (f *DeltaFold) Solve(ctx context.Context, cfg DeltaBuilderConfig, epoch int64) (*Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Under the refresher's (or a synchronous admin delta's) span tree.
	octx := obs.RequestOr(ctx, cfg.Obs)
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
	gamma := f.base.Config().Gamma
	warm, err := mass.RemapWarmStart(f.base.Estimates(), res.Remap, hosts.Graph.NumNodes(), core, gamma)
	if err != nil {
		return nil, fmt.Errorf("remap warm start: %w", err)
	}
	if cfg.Solver.Obs == nil {
		cfg.Solver.Obs = octx.In(sp)
	}
	es, err := mass.NewEstimator(hosts.Graph, mass.Options{Solver: cfg.Solver, Gamma: gamma})
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
	scfg := f.base.Config()
	scfg.Core = core
	scfg.CoreSize = len(core)
	return NewSnapshot(hosts, est, scfg, epoch)
}

// MergeTime returns the wall time of Solve's merge pass (zero before
// Solve), so a caller can split the build's time in its log.
func (f *DeltaFold) MergeTime() time.Duration { return f.merge }

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
