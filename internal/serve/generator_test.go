package serve

import (
	"context"
	"math"
	"runtime"
	"testing"

	"spammass/internal/delta"
	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/pagerank"
	"spammass/internal/testutil"
	"spammass/internal/webgen"
)

// servedDelta is the δ contract (DESIGN.md, "What spamserver runs"):
// every generation the server publishes serves scaled p, scaled p′ and
// m̃ within δ of the ε = 1e-13 solution on its own graph, relative with
// a max(1, ·) denominator. δ may only tighten.
const servedDelta = 1e-7

// Exact work ceilings on the accuracy test's world and stream:
// SolveStats.EdgesSwept of the (p, p′) push for the cold refresh, one
// warm build and the 10-batch fold, each the measured count + 5 %. Push
// columns are bit-identical at any worker count, so the counts do not
// depend on GOMAXPROCS. A ceiling only comes down.
const (
	coldRefreshEdgesCeiling = 7_994_370 // measured 7,613,686
	warmBuildEdgesCeiling   = 5_543_413 // measured 5,279,441
	foldEdgesCeiling        = 7_118_176 // measured 6,779,216
)

// TestServedAccuracy pins what every generation serves. On the
// benchmark's 100k-host world (webgen seed 11, its assembled good core)
// and a bench-shaped delta stream (testutil.DeltaStream, seed 271) it
// drives DefaultGenerator, the generator spamserver runs:
//   - the cold refresh (Cold);
//   - a warm build after one batch (Delta);
//   - a chain of ten sequential warm builds;
//   - one Fold that stages the same ten batches and solves once, which
//     is what WAL recovery runs.
//
// Each must serve within servedDelta of an ε = 1e-13 Jacobi reference
// solved on that case's graph, and agree with it on every Algorithm 2
// label outside a 1e-6 band around ρ and τ. The push at ε = 1e-10
// misses the bound in every case (4–6e-7).
func TestServedAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a 100k-host world 16 times")
	}
	wcfg := webgen.DefaultConfig(100_000)
	wcfg.Seed = 11
	h, core, err := testutil.Web(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := testutil.DeltaStream(h, 271, 10)
	if err != nil {
		t.Fatal(err)
	}
	gen := DefaultGenerator()

	dcfg := mass.DefaultDetectConfig()
	rho, tau := dcfg.ScaledPageRankThreshold, dcfg.RelMassThreshold
	spam := func(p, rel float64) bool { return p >= rho && rel >= tau }
	check := func(name string, snap *Snapshot) {
		t.Helper()
		hosts, est := snap.HostGraph(), snap.Estimates()
		refSolver := pagerank.Config{Damping: 0.85, Epsilon: 1e-13, MaxIter: 1000}
		ref, err := mass.EstimateFromCore(hosts.Graph, snap.Core(), mass.Options{Solver: refSolver, Gamma: snap.Config().Gamma})
		if err != nil {
			t.Fatal(err)
		}
		scale := float64(ref.N()) / (1 - ref.Damping)
		maxErr, flips := 0.0, 0
		for x := 0; x < ref.N(); x++ {
			wantP, wantRel := ref.P[x]*scale, ref.Rel[x]
			gotP, gotRel := est.P[x]*scale, est.Rel[x]
			for _, pair := range [][2]float64{{gotP, wantP}, {est.PCore[x] * scale, ref.PCore[x] * scale}, {gotRel, wantRel}} {
				got, want := pair[0], pair[1]
				e := math.Abs(got-want) / math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
				maxErr = math.Max(maxErr, e)
			}
			near := math.Abs(wantP-rho) <= 1e-6*rho || math.Abs(wantRel-tau) <= 1e-6
			if spam(gotP, gotRel) != spam(wantP, wantRel) && !near {
				flips++
				if flips <= 3 {
					t.Logf("%s: host %s (node %d): p=%v m̃=%v, reference p=%v m̃=%v",
						name, hosts.Names[x], graph.NodeID(x), gotP, gotRel, wantP, wantRel)
				}
			}
		}
		t.Logf("%s: %d hosts, worst served error %.3g, %d edges pushed", name, ref.N(), maxErr, est.SolveStats.EdgesSwept)
		if maxErr > servedDelta {
			t.Errorf("%s serves a worst relative error of %.3g, want ≤ %g", name, maxErr, servedDelta)
		}
		if flips > 0 {
			t.Errorf("%s flips %d Algorithm 2 labels outside the threshold band", name, flips)
		}
	}
	ceiling := func(name string, snap *Snapshot, ceil int64) {
		t.Helper()
		if edges := snap.Estimates().SolveStats.EdgesSwept; edges > ceil {
			t.Errorf("%s pushed %d edges, above its ceiling of %d", name, edges, ceil)
		}
	}

	ctx := context.Background()
	base, err := gen.Cold(ctx, h, core, 1)
	if err != nil {
		t.Fatal(err)
	}
	ceiling("cold refresh", base, coldRefreshEdgesCeiling)
	check("cold refresh", base)

	chain := base
	for k, b := range batches {
		if chain, err = gen.Delta(ctx, chain, chain.Epoch()+1, b); err != nil {
			t.Fatalf("batch %d: %v", k+1, err)
		}
		if k == 0 {
			ceiling("warm build after 1 batch", chain, warmBuildEdgesCeiling)
			check("warm build after 1 batch", chain)
		}
	}
	check("chain of 10 warm builds", chain)

	fold := gen.Fold(base)
	for k, b := range batches {
		if err := fold.Stage(b); err != nil {
			t.Fatalf("stage batch %d: %v", k+1, err)
		}
	}
	folded, err := fold.Solve(ctx, base.Epoch()+int64(len(batches)))
	if err != nil {
		t.Fatal(err)
	}
	ceiling("fold of 10 batches", folded, foldEdgesCeiling)
	check("fold of 10 batches", folded)
}

// Allocation ceilings for one merge (delta.Fold.Apply) of the first
// batch of TestServedAccuracy's stream onto its 100k world, each the
// measured value + 5 %. A ceiling only comes down.
const (
	mergeBytesCeiling  = 8_676_682 // measured 8,263,506
	mergeAllocsCeiling = 528       // measured 503
)

// TestMergeAllocCeiling pins the bytes and allocations of the merge a
// one-batch delta build runs, on the world and stream of
// TestServedAccuracy.
func TestMergeAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-host world")
	}
	wcfg := webgen.DefaultConfig(100_000)
	wcfg.Seed = 11
	h, _, err := testutil.Web(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := testutil.DeltaStream(h, 271, 10)
	if err != nil {
		t.Fatal(err)
	}
	fold := delta.NewFold(h)
	if _, err := fold.Stage(batches[0]); err != nil {
		t.Fatal(err)
	}
	const runs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := fold.Apply(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes, allocs := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
	t.Logf("one-batch merge: %d bytes, %d allocations", bytes, allocs)
	if bytes > mergeBytesCeiling {
		t.Errorf("one-batch merge allocated %d bytes, above its ceiling of %d", bytes, mergeBytesCeiling)
	}
	if allocs > mergeAllocsCeiling {
		t.Errorf("one-batch merge made %d allocations, above its ceiling of %d", allocs, mergeAllocsCeiling)
	}
}
