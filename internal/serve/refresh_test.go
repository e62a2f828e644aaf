package serve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/pagerank"
)

// estimatorBuilder returns a BuildFunc that runs the real estimator
// with the given solver config — the production shape of a refresh.
func estimatorBuilder(h *graph.HostGraph, core []graph.NodeID, solver pagerank.Config) BuildFunc {
	return func(ctx context.Context, prev *Snapshot, epoch int64) (*Snapshot, error) {
		opts := mass.Options{Solver: solver, Gamma: 0.85}
		est, err := mass.EstimateFromCore(h.Graph, core, opts)
		if err != nil {
			return nil, err
		}
		return NewSnapshot(h, est, SnapshotConfig{Detect: mass.DefaultDetectConfig(), Gamma: 0.85, CoreSize: len(core)}, epoch)
	}
}

func TestRefreshPublishes(t *testing.T) {
	h := testHostGraph(t)
	st := NewStore()
	ref := NewRefresher(st, estimatorBuilder(h, []graph.NodeID{0, 1}, pagerank.DefaultConfig()), RefresherConfig{})
	for want := int64(1); want <= 3; want++ {
		if err := ref.Refresh(context.Background()); err != nil {
			t.Fatalf("refresh %d: %v", want, err)
		}
		if st.Epoch() != want {
			t.Fatalf("store epoch %d after refresh, want %d", st.Epoch(), want)
		}
	}
	ok, failed := ref.Counts()
	if ok != 3 || failed != 0 {
		t.Fatalf("counts ok=%d failed=%d, want 3/0", ok, failed)
	}
	if err := ref.LastError(); err != nil {
		t.Fatalf("LastError after success: %v", err)
	}
	if ref.LastDuration() <= 0 {
		t.Error("LastDuration not recorded")
	}
}

func TestRefreshFailureKeepsOldSnapshot(t *testing.T) {
	h := testHostGraph(t)
	st := NewStore()
	boom := errors.New("inputs unavailable")
	fail := false
	good := estimatorBuilder(h, []graph.NodeID{0, 1}, pagerank.DefaultConfig())
	build := func(ctx context.Context, prev *Snapshot, epoch int64) (*Snapshot, error) {
		if fail {
			return nil, boom
		}
		return good(ctx, prev, epoch)
	}
	ref := NewRefresher(st, build, RefresherConfig{})
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	served := st.Load()

	fail = true
	err := ref.Refresh(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("failed refresh returned %v, want wrapped %v", err, boom)
	}
	if st.Load() != served {
		t.Fatal("failed refresh replaced the served snapshot")
	}
	if !errors.Is(ref.LastError(), boom) {
		t.Fatalf("LastError = %v, want wrapped %v", ref.LastError(), boom)
	}
	if ok, failed := ref.Counts(); ok != 1 || failed != 1 {
		t.Fatalf("counts ok=%d failed=%d, want 1/1", ok, failed)
	}

	// Recovery: the next successful refresh publishes epoch 2.
	fail = false
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != 2 {
		t.Fatalf("store epoch %d after recovery, want 2", st.Epoch())
	}
	if err := ref.LastError(); err != nil {
		t.Fatalf("LastError not cleared after recovery: %v", err)
	}
}

// TestRefreshNonConvergenceKeepsServing is the acceptance case: a
// refresh whose solve hits MaxIter without meeting Epsilon surfaces as
// pagerank.ErrNotConverged and the previous snapshot keeps serving.
func TestRefreshNonConvergenceKeepsServing(t *testing.T) {
	h := testHostGraph(t)
	st := NewStore()
	ref := NewRefresher(st, estimatorBuilder(h, []graph.NodeID{0, 1}, pagerank.DefaultConfig()), RefresherConfig{})
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	served := st.Load()

	strangled := pagerank.DefaultConfig()
	strangled.MaxIter = 1
	strangled.Epsilon = 1e-300
	bad := NewRefresher(st, estimatorBuilder(h, []graph.NodeID{0, 1}, strangled), RefresherConfig{})
	err := bad.Refresh(context.Background())
	if err == nil {
		t.Fatal("non-converged refresh reported success")
	}
	if !pagerank.IsNotConverged(err) {
		t.Fatalf("refresh error %v does not wrap ErrNotConverged", err)
	}
	if st.Load() != served || st.Epoch() != 1 {
		t.Fatalf("non-converged refresh disturbed the served snapshot (epoch %d)", st.Epoch())
	}
	if rec, ok := st.Load().Lookup("a.example"); !ok || rec.Epoch != 1 {
		t.Fatalf("old snapshot no longer serving: %+v %v", rec, ok)
	}
}

func TestRefreshNilSnapshotBuilder(t *testing.T) {
	st := NewStore()
	ref := NewRefresher(st, func(context.Context, *Snapshot, int64) (*Snapshot, error) {
		return nil, nil
	}, RefresherConfig{})
	err := ref.Refresh(context.Background())
	if err == nil || !strings.Contains(err.Error(), "neither snapshot nor error") {
		t.Fatalf("nil/nil build returned %v", err)
	}
}

func TestRefresherRunTriggerAndCancel(t *testing.T) {
	h := testHostGraph(t)
	st := NewStore()
	ref := NewRefresher(st, estimatorBuilder(h, []graph.NodeID{0, 1}, pagerank.DefaultConfig()), RefresherConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ref.Run(ctx)
	}()
	ref.Trigger()
	deadline := time.Now().Add(10 * time.Second)
	for st.Epoch() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("triggered refresh never published")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not exit on context cancel")
	}
}
