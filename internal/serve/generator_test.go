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

// servedWorlds are TestServedAccuracy's worlds: the benchmark's 100k
// world (webgen seed 11) at webgen's default density, ≈2.3 edges per
// host, and at the paper's, ≈13.3 (MeanOutDeg 100). Each carries exact
// work ceilings: SolveStats.EdgesSwept of the (p, p′) push for the
// cold refresh, one warm build and the 10-batch fold, each the measured
// count + 5 %. Push columns are bit-identical at any worker count, so
// the counts do not depend on GOMAXPROCS. A ceiling only comes down.
//
// Before the push was restricted to the hosts with out-links (at
// ε = 1e-11) the counts were 7,613,686 / 5,279,441 / 6,779,216 at the
// default density and 54,340,470 / 39,312,131 / 46,761,192 at the
// paper's. The paper-density world adds about 4 s to the test on two
// cores (1.4 s → 5.5 s).
var servedWorlds = []struct {
	name             string
	meanOutDeg       float64 // 0 keeps webgen's default
	cold, warm, fold int64
}{
	// measured 6,675,930 / 4,705,059 / 6,279,790
	{"default density", 0, 7_009_727, 4_940_312, 6_593_780},
	// measured 35,341,617 / 27,197,930 / 31,825,209
	{"paper density", 100, 37_108_698, 28_557_827, 33_416_470},
}

// TestServedAccuracy pins what every generation serves. On each of
// servedWorlds (its assembled good core) and a bench-shaped delta
// stream (testutil.DeltaStream, seed 271) it drives DefaultGenerator,
// the generator spamserver runs:
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
		t.Skip("solves two 100k-host worlds 16 times each")
	}
	for _, w := range servedWorlds {
		t.Run(w.name, func(t *testing.T) {
			wcfg := webgen.DefaultConfig(100_000)
			wcfg.Seed = 11
			if w.meanOutDeg > 0 {
				wcfg.MeanOutDeg = w.meanOutDeg
			}
			servedAccuracy(t, wcfg, w.cold, w.warm, w.fold)
		})
	}
}

// servedAccuracy is TestServedAccuracy on one world, with its three
// edge ceilings.
func servedAccuracy(t *testing.T, wcfg webgen.Config, coldCeil, warmCeil, foldCeil int64) {
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
		st := est.SolveStats
		t.Logf("%s: %d hosts, worst served error %.3g, %d edges in %d pushes", name, ref.N(), maxErr, st.EdgesSwept, st.Pushes)
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
	ceiling("cold refresh", base, coldCeil)
	check("cold refresh", base)

	chain := base
	for k, b := range batches {
		if chain, err = gen.Delta(ctx, chain, chain.Epoch()+1, b); err != nil {
			t.Fatalf("batch %d: %v", k+1, err)
		}
		if k == 0 {
			ceiling("warm build after 1 batch", chain, warmCeil)
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
	ceiling("fold of 10 batches", folded, foldCeil)
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

// coldBytesCeiling is the bytes one Generator.Cold allocates on
// TestServedAccuracy's 100k world, measured before the push was
// restricted to the hosts with out-links. A ceiling only comes down.
const coldBytesCeiling = 11_022_744

// TestColdAllocCeiling pins the bytes one cold build allocates: the
// engine, its push block, both pushed columns and the snapshot. It
// measures the second of two builds, so that one-time runtime
// allocations do not count.
func TestColdAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-host world")
	}
	if raceEnabled {
		t.Skip("allocation counts under -race are not the production ones")
	}
	wcfg := webgen.DefaultConfig(100_000)
	wcfg.Seed = 11
	h, core, err := testutil.Web(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, ctx := DefaultGenerator(), context.Background()
	if _, err := gen.Cold(ctx, h, core, 1); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := gen.Cold(ctx, h, core, 2); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("one cold build: %d bytes, %d allocations", bytes, after.Mallocs-before.Mallocs)
	if bytes > coldBytesCeiling {
		t.Errorf("one cold build allocated %d bytes, above its ceiling of %d", bytes, coldBytesCeiling)
	}
}
