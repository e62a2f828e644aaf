package ingest

import (
	"context"
	"fmt"

	"spammass/internal/delta"
	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
	"spammass/internal/serve"
)

// DefaultExactEvery is the warm-solve cadence when
// AnytimeConfig.ExactEvery is zero: every 4th applied batch runs the
// exact estimator, the three between serve Monte-Carlo estimates.
const DefaultExactEvery = 4

// AnytimeConfig tunes the anytime estimation path.
type AnytimeConfig struct {
	// WalksPerNode is the stored-walk budget R of both incremental
	// Monte-Carlo estimators; 0 means 100. Standard-error of a score
	// shrinks as 1/√R; repair cost per batch grows linearly in R.
	WalksPerNode int
	// Seed drives the walk simulation.
	Seed int64
	// ExactEvery is the authority cadence: every ExactEvery-th applied
	// batch runs the exact warm solve (EstimateFromCoreWarm) instead of
	// publishing Monte-Carlo estimates, re-anchoring the served scores.
	// 1 makes every batch exact (the plain delta builder); 0 means
	// DefaultExactEvery.
	ExactEvery int
	// Obs receives the ingest.anytime_* metrics.
	Obs *obs.Context
}

// Anytime maintains the two incremental Monte-Carlo estimators of the
// spam-mass pair — p over the uniform jump, p' over the γ-scaled core
// jump — under graph churn, so every applied batch can publish fresh
// (bounded-staleness) scores without waiting for an exact solve. The
// exact solver remains the authority: each warm solve replaces the
// served estimates entirely, and the walks only bridge the batches in
// between.
//
// Not safe for concurrent use; the refresher serializes all applies,
// which is the only caller.
type Anytime struct {
	cfg     AnytimeConfig
	damping float64
	gamma   float64
	// base is the host graph the walk stores currently reflect; a
	// prev snapshot whose graph is not base (first use, or a full
	// refresh replaced the lineage) forces a reseed.
	base   *graph.HostGraph
	mcP    *pagerank.IncrementalMC
	mcCore *pagerank.IncrementalMC

	reseeds  *obs.Counter
	repaired *obs.Counter
	steps    *obs.Counter
}

// NewAnytime validates the configuration; the walk stores are seeded
// lazily on first use (or explicitly via Reseed).
func NewAnytime(cfg AnytimeConfig) (*Anytime, error) {
	if cfg.WalksPerNode <= 0 {
		cfg.WalksPerNode = 100
	}
	if cfg.ExactEvery <= 0 {
		cfg.ExactEvery = DefaultExactEvery
	}
	return &Anytime{
		cfg:      cfg,
		reseeds:  cfg.Obs.Counter("ingest.anytime_reseeds_total"),
		repaired: cfg.Obs.Counter("ingest.anytime_walks_repaired_total"),
		steps:    cfg.Obs.Counter("ingest.anytime_rewalk_steps_total"),
	}, nil
}

// allNodes returns 0..n-1, the support of the uniform jump.
func allNodes(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

// Reseed simulates both walk stores from scratch against snap's graph
// and core. Called on first use and whenever the lineage breaks (a
// full refresh replaced the graph object the walks were tracking).
func (a *Anytime) Reseed(snap *serve.Snapshot) error {
	hosts := snap.HostGraph()
	core := snap.Core()
	if len(core) == 0 {
		return fmt.Errorf("ingest: anytime estimation needs the snapshot's core")
	}
	n := hosts.Graph.NumNodes()
	a.damping = snap.Estimates().Damping
	a.gamma = snap.Config().Gamma
	mcCfg := pagerank.MonteCarloConfig{Damping: a.damping, WalksPerNode: a.cfg.WalksPerNode, Seed: a.cfg.Seed}
	var err error
	if a.mcP, err = pagerank.NewIncrementalMC(hosts.Graph, allNodes(n), 1/float64(n), mcCfg); err != nil {
		return fmt.Errorf("ingest: seeding p walks: %w", err)
	}
	mcCfg.Seed = a.cfg.Seed + 1
	if a.mcCore, err = pagerank.NewIncrementalMC(hosts.Graph, core, a.gamma/float64(len(core)), mcCfg); err != nil {
		return fmt.Errorf("ingest: seeding p' walks: %w", err)
	}
	a.base = hosts
	a.reseeds.Inc()
	return nil
}

// dirtySet lists, in new-graph IDs, every surviving host whose
// out-link set the batch changed: sources of explicit edge ops, plus
// in-neighbors of removed hosts (their edge to the removed host is
// dropped implicitly). These are exactly the nodes at which a stored
// walk's next-step distribution is stale.
func dirtySet(prev *graph.HostGraph, res *delta.Result, b *delta.Batch) []graph.NodeID {
	dirtyOld := make(map[graph.NodeID]bool)
	removedAny := false
	for _, op := range b.Ops {
		switch op.Kind {
		case delta.AddEdge, delta.RemoveEdge:
			if x, ok := prev.NodeByName(op.Src); ok {
				dirtyOld[x] = true
			}
		case delta.RemoveHost:
			removedAny = true
		}
	}
	if removedAny {
		prev.Graph.Edges(func(u, v graph.NodeID) bool {
			if res.Remap[v] < 0 {
				dirtyOld[u] = true
			}
			return true
		})
	}
	out := make([]graph.NodeID, 0, len(dirtyOld))
	for x := range dirtyOld {
		if nx := res.Remap[x]; nx >= 0 {
			out = append(out, graph.NodeID(nx))
		}
	}
	return out
}

// advance repairs both walk stores across one applied batch and
// returns the Monte-Carlo estimates on the new graph.
func (a *Anytime) advance(prev *serve.Snapshot, res *delta.Result, b *delta.Batch, core []graph.NodeID) (*mass.Estimates, error) {
	dirty := dirtySet(prev.HostGraph(), res, b)
	n2 := res.Hosts.Graph.NumNodes()
	stP, err := a.mcP.Update(res.Hosts.Graph, res.Remap, dirty, allNodes(n2), 1/float64(n2))
	if err != nil {
		return nil, fmt.Errorf("ingest: repairing p walks: %w", err)
	}
	stC, err := a.mcCore.Update(res.Hosts.Graph, res.Remap, dirty, core, a.gamma/float64(len(core)))
	if err != nil {
		return nil, fmt.Errorf("ingest: repairing p' walks: %w", err)
	}
	a.base = res.Hosts
	a.repaired.Add(int64(stP.WalksRepaired + stC.WalksRepaired))
	a.steps.Add(int64(stP.Steps + stC.Steps))
	return mass.Derive(a.mcP.Scores(), a.mcCore.Scores(), a.damping), nil
}

// HybridBuilderConfig configures NewHybridDeltaBuilder.
type HybridBuilderConfig struct {
	// Solver configures the exact warm solves at the authority cadence.
	Solver pagerank.Config
	// Anytime holds the walk state; required.
	Anytime *Anytime
	// Obs receives the delta and ingest metrics.
	Obs *obs.Context
}

// NewHybridDeltaBuilder returns a serve.DeltaApplyFunc that interleaves
// anytime Monte-Carlo estimates with exact warm solves: every applied
// batch repairs the stored walks and publishes MC-estimated scores
// immediately, and every ExactEvery-th batch runs the exact
// EstimateFromCoreWarm instead — the authority that re-anchors the
// estimates, bounding how far Monte-Carlo error can accumulate.
// Between anchors, staleness is bounded by the walk repair: every
// published epoch reflects the batch's own graph mutations; only the
// sampling noise (∝ 1/√R) and unrepaired higher-order effects persist.
//
// The refresher serializes applies, so the builder (and the Anytime
// state behind it) needs no locking.
func NewHybridDeltaBuilder(cfg HybridBuilderConfig) (serve.DeltaApplyFunc, error) {
	if cfg.Anytime == nil {
		return nil, fmt.Errorf("ingest: HybridBuilderConfig.Anytime is required")
	}
	a := cfg.Anytime
	sinceExact := 0
	return func(ctx context.Context, prev *serve.Snapshot, epoch int64, batch *delta.Batch) (*serve.Snapshot, error) {
		octx := obs.RequestOr(ctx, cfg.Obs)
		sp := octx.Span("ingest.hybrid_build")
		defer sp.End()
		sp.SetAttr("ops", batch.NumOps())
		fold := serve.NewDeltaFold(prev)
		res, err := fold.Stage(batch)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// Lineage: walks must track the exact graph object prev serves.
		// First use, recovery boot, or a full refresh in between all
		// surface as a pointer mismatch and force a fresh simulation.
		if a.base != prev.HostGraph() {
			if err := a.Reseed(prev); err != nil {
				return nil, err
			}
		}

		// The walks advance on every batch so they track the graph; on an
		// exact epoch their scores are simply not published.
		est, err := a.advance(prev, res, batch, res.RemapNodes(prev.Core()))
		if err != nil {
			return nil, err
		}
		sp.SetAttr("stats", res.Stats.String())
		sinceExact++
		if sinceExact < a.cfg.ExactEvery {
			octx.Counter("ingest.anytime_batches_total").Inc()
			sp.SetAttr("mode", "anytime")
			return fold.Snapshot(octx, est, epoch)
		}
		// Solve nests its spans under the request context. Should it fail,
		// the walks are a graph ahead and the lineage check reseeds them.
		snap, err := fold.Solve(obs.WithRequest(ctx, octx.In(sp)), serve.DeltaBuilderConfig{Solver: cfg.Solver, Obs: octx}, epoch)
		if err != nil {
			return nil, err
		}
		sinceExact = 0
		octx.Counter("ingest.exact_batches_total").Inc()
		sp.SetAttr("mode", "exact")
		return snap, nil
	}, nil
}
