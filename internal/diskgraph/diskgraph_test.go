package diskgraph

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/pagerank"
	"spammass/internal/testutil"
)

func buildTemp(t *testing.T, g *graph.Graph) *DiskGraph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.smdg")
	if err := Build(path, g); err != nil {
		t.Fatal(err)
	}
	dg, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

func TestDiskPageRankMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 5; trial++ {
		g := testutil.RandomGraph(rng, 200+rng.Intn(2000), 6)
		dg := buildTemp(t, g)
		if dg.NumNodes() != g.NumNodes() || dg.NumEdges() != g.NumEdges() {
			t.Fatalf("header %d/%d, want %d/%d", dg.NumNodes(), dg.NumEdges(), g.NumNodes(), g.NumEdges())
		}
		v := pagerank.UniformJump(g.NumNodes())
		mem, err := pagerank.Jacobi(g, v, pagerank.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		disk, err := dg.PageRank(v, pagerank.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !disk.Converged {
			t.Fatal("disk PageRank did not converge")
		}
		if d := testutil.MaxAbsDiff(mem.Scores, disk.Scores); d > 1e-12 {
			t.Fatalf("trial %d: disk and in-memory PageRank differ by %v", trial, d)
		}
	}
}

func TestDiskPageRankCoreJump(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testutil.RandomGraph(rng, 1000, 5)
	dg := buildTemp(t, g)
	core := []graph.NodeID{3, 99, 500}
	v := pagerank.ScaledCoreJump(g.NumNodes(), core, 0.85)
	mem, err := pagerank.Jacobi(g, v, pagerank.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	disk, err := dg.PageRank(v, pagerank.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d := testutil.MaxAbsDiff(mem.Scores, disk.Scores); d > 1e-12 {
		t.Fatalf("core-based disk PageRank differs by %v", d)
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("XXXXjunk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Error("bad magic accepted")
	}
	truncated := filepath.Join(dir, "trunc")
	if err := os.WriteFile(truncated, []byte("SMDG\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(truncated); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestPageRankValidation(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}})
	dg := buildTemp(t, g)
	if _, err := dg.PageRank(pagerank.Vector{1}, pagerank.DefaultConfig()); err == nil {
		t.Error("wrong-length jump accepted")
	}
	for _, bad := range []struct {
		name             string
		damping, epsilon float64
	}{
		{"damping 2", 2, 0},
		{"damping NaN", math.NaN(), 0},
		{"damping +Inf", math.Inf(1), 0},
		{"damping -Inf", math.Inf(-1), 0},
		{"epsilon NaN", 0, math.NaN()},
		{"epsilon +Inf", 0, math.Inf(1)},
		{"epsilon -Inf", 0, math.Inf(-1)},
	} {
		cfg := pagerank.DefaultConfig()
		if bad.damping != 0 {
			cfg.Damping = bad.damping
		}
		if bad.epsilon != 0 {
			cfg.Epsilon = bad.epsilon
		}
		if _, err := dg.PageRank(pagerank.UniformJump(3), cfg); err == nil {
			t.Errorf("%s accepted", bad.name)
		}
	}
}

func TestCorruptedAdjacencyDetected(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {2, 3}, {3, 0}})
	path := filepath.Join(t.TempDir(), "g")
	if err := Build(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the adjacency section.
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	dg, err := Open(path)
	if err != nil {
		t.Fatal(err) // header intact
	}
	if _, err := dg.PageRank(pagerank.UniformJump(4), pagerank.DefaultConfig()); err == nil {
		t.Error("truncated adjacency not detected")
	}
}

func TestEmptyGraphOnDisk(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	dg := buildTemp(t, g)
	res, err := dg.PageRank(pagerank.Vector{}, pagerank.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 0 {
		t.Errorf("empty graph produced %d scores", len(res.Scores))
	}
}
