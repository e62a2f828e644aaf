package main

import (
	"context"
	"math"
	"testing"

	"spammass/internal/delta"
	"spammass/internal/ingest"
	"spammass/internal/serve"
	"spammass/internal/testutil"
)

// servedDelta is TestServedAccuracy's δ (internal/serve): the relative
// error, against max(1, |score|), within which every served generation
// holds its scores.
const servedDelta = 1e-7

// TestRefreshKeepsAcknowledgedDelta drives the durable server's builder
// through a real Refresher and Pipeline: a refresh after an applied
// batch re-solves the served generation, so the batch's host stays
// served, with the warm chain's scores to δ; a compaction persists the
// refreshed epoch under the batch's sequence, so a restart serves it
// too. The input files are read once, by the first boot: neither the
// refresh nor the restart, which starts from the snapshot, calls load.
func TestRefreshKeepsAcknowledgedDelta(t *testing.T) {
	h, core, err := testutil.SmallWeb()
	if err != nil {
		t.Fatal(err)
	}
	gen := serve.DefaultGenerator()
	loads := 0
	load := func(ctx context.Context, epoch int64) (*serve.Snapshot, error) {
		loads++
		return gen.Cold(ctx, h, core, epoch)
	}
	ctx := context.Background()
	dir := t.TempDir()
	boot := func() (*serve.Store, *serve.Refresher, *ingest.Pipeline) {
		t.Helper()
		pl, err := ingest.Open(ingest.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		store := serve.NewStore()
		ref := serve.NewRefresher(store, builder(gen, pl, load), serve.RefresherConfig{ApplyDelta: gen.Delta, Journal: pl})
		if err := ref.Refresh(ctx); err != nil {
			pl.Close()
			t.Fatalf("boot: %v", err)
		}
		return store, ref, pl
	}

	// 1. Boot.
	store, ref, pl := boot()
	defer func() { pl.Close() }()

	// 2. An acknowledged batch creates a host with two edges.
	const host = "rollback.example"
	batch := &delta.Batch{Ops: []delta.Op{
		delta.AddHostOp(host),
		delta.AddEdgeOp(h.Names[0], host),
		delta.AddEdgeOp(host, h.Names[1]),
	}}
	if err := ref.SubmitDeltaWait(ctx, batch); err != nil {
		t.Fatalf("delta: %v", err)
	}
	warm := store.Load()
	want, ok := warm.Lookup(host)
	if !ok {
		t.Fatalf("epoch %d does not serve %s after its batch", warm.Epoch(), host)
	}

	// 3. A refresh re-solves that generation, cold.
	if err := ref.Refresh(ctx); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	refreshed := store.Load()
	if refreshed.Epoch() != warm.Epoch()+1 {
		t.Fatalf("refresh published epoch %d, want %d", refreshed.Epoch(), warm.Epoch()+1)
	}
	if refreshed.Estimates().SolveStats.WarmStarted {
		t.Error("refresh warm-started; a full refresh solves from x = 0")
	}
	if got, ok := refreshed.Lookup(host); !ok {
		t.Errorf("refresh to epoch %d dropped %s, created by an acknowledged batch", refreshed.Epoch(), host)
	} else {
		for _, s := range []struct {
			name      string
			got, want float64
		}{
			{"p", got.PageRank, want.PageRank},
			{"p′", got.CorePageRank, want.CorePageRank},
			{"m̃", got.RelMass, want.RelMass},
		} {
			if e := math.Abs(s.got-s.want) / math.Max(1, math.Max(math.Abs(s.got), math.Abs(s.want))); e > servedDelta {
				t.Errorf("%s %s: refreshed %v, warm chain %v (error %.3g > δ = %g)", host, s.name, s.got, s.want, e, servedDelta)
			}
		}
	}
	if refreshed.NumHosts() != warm.NumHosts() {
		t.Errorf("refresh serves %d hosts, the generation it re-solved %d", refreshed.NumHosts(), warm.NumHosts())
	}
	if loads != 1 {
		t.Errorf("load called %d times after boot and refresh, want 1 (the boot)", loads)
	}
	loadsBefore := loads

	// 4. Compact, close, and boot again on the same directory.
	if err := pl.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	store, _, pl = boot()
	restarted := store.Load()
	if restarted.Epoch() != refreshed.Epoch() {
		t.Errorf("restart serves epoch %d, want the refreshed epoch %d", restarted.Epoch(), refreshed.Epoch())
	}
	if _, ok := restarted.Lookup(host); !ok {
		t.Errorf("restart at epoch %d does not serve %s", restarted.Epoch(), host)
	}
	if loads != loadsBefore {
		t.Errorf("a restart from a snapshot called load %d times, want 0", loads-loadsBefore)
	}
}
