//go:build vectorcheck

package pagerank

import (
	"math"
	"strings"
	"testing"

	"spammass/internal/graph"
)

// Under -tags vectorcheck a poisoned jump vector must be caught at the
// engine boundary instead of propagating NaN scores downstream.
func TestVectorCheckCatchesPoisonedJump(t *testing.T) {
	if !vectorCheckEnabled {
		t.Fatal("test built without the vectorcheck tag")
	}
	g := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	cfg := DefaultConfig()
	cfg.Algorithm = AlgoJacobi
	cfg.MaxIter = 5 // NaN residuals never pass the epsilon test; keep it quick
	eng, err := NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	v := make(Vector, 4)
	for i := range v {
		v[i] = 0.25
	}
	v[2] = math.NaN()
	res, err := eng.Solve(v)
	if err == nil {
		t.Fatal("poisoned jump vector solved without error")
	}
	if !strings.Contains(err.Error(), "vectorcheck") || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("error %q does not name the vectorcheck NaN finding", err)
	}
	if res != nil {
		t.Error("poisoned solve must not hand out results")
	}
}

func TestVectorCheckCatchesNegative(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}})
	cfg := DefaultConfig()
	cfg.Algorithm = AlgoJacobi
	eng, err := NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Node 1's only inflow comes from node 0, which has zero jump
	// weight, so its score is exactly (1−c)·(−0.5) < 0.
	if _, err := eng.Solve(Vector{0, -0.5, 0}); err == nil ||
		!strings.Contains(err.Error(), "negative") {
		t.Errorf("negative jump weight not caught: err=%v", err)
	}
	// The out-of-core solve closes through the same guard.
	if _, err := openDisk(t, g).Jacobi(Vector{0, -0.5, 0}, cfg); err == nil ||
		!strings.Contains(err.Error(), "negative") {
		t.Errorf("negative jump weight not caught out of core: err=%v", err)
	}
}

// A clean solve must pass the guard untouched.
func TestVectorCheckPassesCleanSolve(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}})
	eng, err := NewEngine(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	v := Vector{1. / 3, 1. / 3, 1. / 3}
	if _, err := eng.Solve(v); err != nil {
		t.Fatalf("clean solve failed under vectorcheck: %v", err)
	}
}
