package ingest

import (
	"context"
	"math"
	"testing"

	"spammass/internal/delta"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
	"spammass/internal/serve"
)

// applyHybrid drives one batch through a hybrid builder, advancing the
// epoch the way the refresher does.
func applyHybrid(t *testing.T, apply serve.DeltaApplyFunc, prev *serve.Snapshot, b *delta.Batch) *serve.Snapshot {
	t.Helper()
	next, err := apply(context.Background(), prev, prev.Epoch()+1, b)
	if err != nil {
		t.Fatalf("hybrid apply: %v", err)
	}
	return next
}

// TestHybridBuilderCadence: with ExactEvery=3, batches 3 and 6 are
// exact warm solves and the rest are Monte-Carlo estimates. The exact
// epochs must agree tightly with a pure-exact control; the anytime
// epochs must agree within sampling error — and every epoch must
// reflect the batch's own mutation (the new host exists and has a
// score).
func TestHybridBuilderCadence(t *testing.T) {
	any, err := NewAnytime(AnytimeConfig{WalksPerNode: 3000, ExactEvery: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := NewHybridDeltaBuilder(HybridBuilderConfig{Solver: pagerank.DefaultConfig(), Anytime: any})
	if err != nil {
		t.Fatal(err)
	}
	exact := serve.NewDeltaBuilder(serve.DeltaBuilderConfig{Solver: pagerank.DefaultConfig()})

	cur := testServeSnapshot(t, 1)
	control := cur
	for i := 1; i <= 6; i++ {
		b := growthBatch(i)
		cur = applyHybrid(t, hybrid, cur, b)
		control = applyHybrid(t, exact, control, b)
		if cur.Epoch() != control.Epoch() {
			t.Fatalf("batch %d: epoch %d, control %d", i, cur.Epoch(), control.Epoch())
		}
		// The mutation itself is always reflected, whichever estimator
		// published the scores.
		if cur.NumHosts() != control.NumHosts() {
			t.Fatalf("batch %d: %d hosts, control %d", i, cur.NumHosts(), control.NumHosts())
		}
		tol := 0.02 // exact warm solve vs exact control: solver tolerance
		if i%3 != 0 {
			tol = 0.25 // Monte-Carlo epoch: sampling noise ∝ 1/√R
		}
		var dev, norm float64
		for _, name := range control.HostGraph().Names {
			want, _ := control.Lookup(name)
			got, ok := cur.Lookup(name)
			if !ok {
				t.Fatalf("batch %d: hybrid snapshot misses %s", i, name)
			}
			dev += math.Abs(got.PageRank - want.PageRank)
			norm += want.PageRank
		}
		if dev/norm > tol {
			t.Errorf("batch %d: L1 PageRank deviation %.4f, want < %.2f", i, dev/norm, tol)
		}
		t.Logf("batch %d (%s): relative L1 PageRank deviation %.4f",
			i, map[bool]string{true: "exact", false: "anytime"}[i%3 == 0], dev/norm)
	}
}

// TestHybridBuilderReseedsOnLineageBreak: a prev snapshot whose host
// graph is not the one the walks track (recovery boot, or a full
// refresh in between) must trigger a clean reseed, not a corrupt
// estimate.
func TestHybridBuilderReseedsOnLineageBreak(t *testing.T) {
	any, err := NewAnytime(AnytimeConfig{WalksPerNode: 500, ExactEvery: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := NewHybridDeltaBuilder(HybridBuilderConfig{Solver: pagerank.DefaultConfig(), Anytime: any})
	if err != nil {
		t.Fatal(err)
	}
	s1 := testServeSnapshot(t, 1)
	next := applyHybrid(t, hybrid, s1, growthBatch(1))
	if any.base != next.HostGraph() {
		t.Fatal("walk store does not track the applied graph")
	}

	// A full refresh replaces the lineage: same hosts, new graph object.
	s2 := testServeSnapshot(t, next.Epoch()+1)
	after := applyHybrid(t, hybrid, s2, growthBatch(2))
	if any.base != after.HostGraph() {
		t.Fatal("walk store did not reseed onto the new lineage")
	}
	for _, name := range after.HostGraph().Names {
		if rec, ok := after.Lookup(name); !ok || math.IsNaN(rec.PageRank) || rec.PageRank < 0 {
			t.Fatalf("%s: bad score after reseed: %+v (ok=%v)", name, rec, ok)
		}
	}
}

// TestHybridBuilderHandlesRemoval: a batch that removes a host walks
// the dirty-set path for in-neighbors; the published epoch must drop
// the host and keep finite scores everywhere else.
func TestHybridBuilderHandlesRemoval(t *testing.T) {
	any, err := NewAnytime(AnytimeConfig{WalksPerNode: 500, ExactEvery: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := NewHybridDeltaBuilder(HybridBuilderConfig{Solver: pagerank.DefaultConfig(), Anytime: any})
	if err != nil {
		t.Fatal(err)
	}
	cur := testServeSnapshot(t, 1)
	cur = applyHybrid(t, hybrid, cur, growthBatch(1))
	cur = applyHybrid(t, hybrid, cur, &delta.Batch{Ops: []delta.Op{delta.RemoveHostOp("f.example")}})
	if _, ok := cur.Lookup("f.example"); ok {
		t.Fatal("removed host still served")
	}
	for _, name := range cur.HostGraph().Names {
		rec, ok := cur.Lookup(name)
		if !ok || math.IsNaN(rec.PageRank) || math.IsNaN(rec.AbsMass) {
			t.Fatalf("%s: bad record after removal: %+v (ok=%v)", name, rec, ok)
		}
	}
	// Removing the entire core is refused, matching the exact builder.
	if _, err := hybrid(context.Background(), cur, cur.Epoch()+1, &delta.Batch{Ops: []delta.Op{
		delta.RemoveHostOp("a.example"), delta.RemoveHostOp("b.example"),
	}}); err == nil {
		t.Fatal("hybrid builder accepted a batch that removes the whole core")
	}
}

// TestRecoveryThenAnytime: a server booted with -anytime-every recovers
// its WAL suffix exactly — the fold ends on a warm solve whatever the
// live cadence — and the first live batch finds the walk stores off the
// recovered lineage, reseeds them once, and serves an anytime epoch
// within the documented sampling error.
func TestRecoveryThenAnytime(t *testing.T) {
	reg := obs.NewRegistry()
	octx := obs.NewContext(reg, nil)
	any, err := NewAnytime(AnytimeConfig{WalksPerNode: 3000, ExactEvery: 3, Seed: 11, Obs: octx})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := NewHybridDeltaBuilder(HybridBuilderConfig{Solver: pagerank.DefaultConfig(), Anytime: any, Obs: octx})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Open(Config{Dir: t.TempDir(), Obs: octx})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	for i := 1; i <= 5; i++ {
		if _, err := pl.Append(growthBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	recovered, applied, err := pl.Recover(context.Background(), testServeSnapshot(t, 1), 0, pagerank.DefaultConfig())
	if err != nil || applied != 5 || recovered.Epoch() != 6 {
		t.Fatalf("Recover = (epoch %v, %d, %v), want epoch 6 from 5 batches", recovered, applied, err)
	}
	cold, err := mass.EstimateFromCore(recovered.HostGraph().Graph, recovered.Core(), mass.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for x := range cold.P {
		if math.Abs(recovered.Estimates().P[x]-cold.P[x]) > 1e-9 || math.Abs(recovered.Estimates().PCore[x]-cold.PCore[x]) > 1e-9 {
			t.Fatalf("node %d: recovered (p, p') = (%v, %v), cold solve (%v, %v)", x,
				recovered.Estimates().P[x], recovered.Estimates().PCore[x], cold.P[x], cold.PCore[x])
		}
	}

	reseeds := reg.Counter("ingest.anytime_reseeds_total").Value()
	live := applyHybrid(t, hybrid, recovered, growthBatch(6))
	if got := reg.Counter("ingest.anytime_reseeds_total").Value(); got != reseeds+1 {
		t.Fatalf("anytime_reseeds_total went %d → %d across the first live batch, want one reseed", reseeds, got)
	}
	if n := reg.Counter("ingest.anytime_batches_total").Value(); n != 1 {
		t.Fatalf("anytime_batches_total = %d, want the live batch served from the walks", n)
	}
	exact := serve.NewDeltaBuilder(serve.DeltaBuilderConfig{Solver: pagerank.DefaultConfig()})
	control := applyHybrid(t, exact, recovered, growthBatch(6))
	var dev, norm float64
	for _, name := range control.HostGraph().Names {
		want, _ := control.Lookup(name)
		got, ok := live.Lookup(name)
		if !ok {
			t.Fatalf("live snapshot misses %s", name)
		}
		dev += math.Abs(got.PageRank - want.PageRank)
		norm += want.PageRank
	}
	if live.Epoch() != 7 || dev/norm > 0.25 {
		t.Fatalf("live epoch %d with relative L1 PageRank deviation %.4f, want epoch 7 within 0.25", live.Epoch(), dev/norm)
	}
}
