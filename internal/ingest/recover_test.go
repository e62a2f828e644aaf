package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"spammass/internal/delta"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
	"spammass/internal/serve"
	"spammass/internal/testutil"
)

// tightSolver converges far enough below the default tolerance that two
// differently warm-started solves agree to 1e-9 in the records' scaled
// n/(1−c) units (1.3e4× the solver's own at 2k hosts).
func tightSolver() pagerank.Config {
	cfg := pagerank.DefaultConfig()
	cfg.Epsilon = 1e-14
	return cfg
}

// webgenSnapshot packages a 2k-host webgen world and its assembled good
// core as an epoch-1 snapshot.
func webgenSnapshot(t testing.TB) *serve.Snapshot {
	t.Helper()
	h, core, err := testutil.SmallWeb()
	if err != nil {
		t.Fatal(err)
	}
	opts := mass.DefaultOptions()
	est, err := mass.EstimateFromCore(h.Graph, core, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.NewSnapshot(h, est, serve.SnapshotConfig{Detect: mass.DefaultDetectConfig(), Gamma: opts.Gamma, Core: core}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRecoverMatchesSequentialApply journals seeded random batch
// sequences of every length 1–12 — churn, poison batches, and a batch
// that would empty the core — while a control applies them one at a
// time the way the live loop does; a fresh pipeline over the same log
// must then fold and solve once to the control's state.
func TestRecoverMatchesSequentialApply(t *testing.T) {
	base := webgenSnapshot(t)
	ctx := context.Background()
	apply := serve.NewDeltaBuilder(serve.DeltaBuilderConfig{Solver: tightSolver()})
	for length := 1; length <= 12; length++ {
		length := length
		t.Run(fmt.Sprintf("len%d", length), func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(int64(100 + length)))
			journal, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			control := base
			wantSkipped := 0
			for i := 0; i < length; i++ {
				h := control.HostGraph()
				var b *delta.Batch
				switch rng.Intn(8) {
				case 0:
					b = &delta.Batch{Ops: []delta.Op{delta.AddHostOp(h.Names[rng.Intn(len(h.Names))])}}
				case 1:
					b = &delta.Batch{}
					for _, x := range control.Core() {
						b.Ops = append(b.Ops, delta.RemoveHostOp(h.Names[x]))
					}
				default:
					b = testutil.ChurnBatch(rng, h, fmt.Sprintf("l%d-%d", length, i))
				}
				if _, err := journal.Append(b); err != nil {
					t.Fatal(err)
				}
				if next, err := apply(ctx, control, control.Epoch()+1, b); err != nil {
					wantSkipped++
				} else {
					control = next
				}
			}
			// Crash: abandon the journal without Close.

			reg := obs.NewRegistry()
			root := obs.NewSpan("test")
			pl, err := Open(Config{Dir: dir, Obs: obs.NewContext(reg, root)})
			if err != nil {
				t.Fatal(err)
			}
			defer pl.Close()
			got, applied, err := pl.Recover(ctx, base, 0, tightSolver())
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if applied != length-wantSkipped || reg.Counter("ingest.recovery_skipped_total").Value() != int64(wantSkipped) {
				t.Fatalf("applied %d, skipped %d; control applied %d, skipped %d", applied,
					reg.Counter("ingest.recovery_skipped_total").Value(), length-wantSkipped, wantSkipped)
			}
			// One stage span per replayed batch, one merge for the lot.
			root.End()
			spans := make(map[string]int)
			var walk func(*obs.SpanJSON)
			walk = func(s *obs.SpanJSON) {
				spans[s.Name]++
				for _, c := range s.Children {
					walk(c)
				}
			}
			walk(root.Snapshot())
			wantMerges := 0
			if applied > 0 {
				wantMerges = 1
			}
			if m := reg.Counter("delta.merges_total").Value(); m != int64(wantMerges) || spans["delta.merge"] != wantMerges {
				t.Fatalf("delta.merges_total %d, %d delta.merge spans; want %d", m, spans["delta.merge"], wantMerges)
			}
			if spans["delta.stage"] != length {
				t.Fatalf("%d delta.stage spans for %d replayed batches", spans["delta.stage"], length)
			}
			if applied == 0 {
				if got != base {
					t.Fatal("nothing applied but recovery did not return the base snapshot")
				}
				return
			}
			assertRecordsMatch(t, got, control)
			if !got.HostGraph().Graph.Equal(control.HostGraph().Graph) {
				t.Fatal("recovered graph differs from the control's")
			}
			if !reflect.DeepEqual(got.Core(), control.Core()) {
				t.Fatalf("recovered core %v, control %v", got.Core(), control.Core())
			}
			if snap, seq := pl.checkpoint(); snap != got || seq != uint64(length) {
				t.Fatalf("checkpoint (%p, %d), want (%p, %d)", snap, seq, got, length)
			}
		})
	}
}

// TestRecoverAllPoisonSuffix: when every replayed batch fails to stage,
// recovery serves the base snapshot at the base epoch, counts the skips,
// and still moves the checkpoint past the dead batches.
func TestRecoverAllPoisonSuffix(t *testing.T) {
	dir := t.TempDir()
	journal, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := journal.Append(poisonBatch()); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	pl, err := Open(Config{Dir: dir, Obs: obs.NewContext(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	base := testServeSnapshot(t, 4)
	got, applied, err := pl.Recover(context.Background(), base, 0, pagerank.DefaultConfig())
	if err != nil || applied != 0 || got != base {
		t.Fatalf("Recover = (%v, %d, %v), want (base, 0, nil)", got, applied, err)
	}
	if n := reg.Counter("ingest.recovery_skipped_total").Value(); n != 3 {
		t.Fatalf("recovery_skipped_total = %d, want 3", n)
	}
	if snap, seq := pl.checkpoint(); snap != base || seq != 3 {
		t.Fatalf("checkpoint (%v, %d), want (base, 3)", snap, seq)
	}
}

// TestRecoverCancelledMidFold: a context cancelled while the suffix is
// being staged aborts recovery with the context's error and leaves the
// checkpoint unset — nothing half-folded is ever compacted.
func TestRecoverCancelledMidFold(t *testing.T) {
	dir := t.TempDir()
	journal, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*delta.Batch{growthBatch(1), poisonBatch(), growthBatch(2)} {
		if _, err := journal.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The skip log line of the poison batch (seq 2) is the hook: cancel
	// there, after one batch is staged and before the third is read.
	octx := obs.NewContext(obs.NewRegistry(), nil).WithLogf(func(format string, args ...any) {
		if strings.Contains(format, "skipping batch") {
			cancel()
		}
	})
	pl, err := Open(Config{Dir: dir, Obs: octx})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	got, _, err := pl.Recover(ctx, testServeSnapshot(t, 1), 0, pagerank.DefaultConfig())
	if !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("Recover = (%v, %v), want (nil, context.Canceled)", got, err)
	}
	if snap, seq := pl.checkpoint(); snap != nil || seq != 0 {
		t.Fatalf("checkpoint (%v, %d) after a cancelled recovery, want unset", snap, seq)
	}
}
