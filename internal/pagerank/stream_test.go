package pagerank

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/testutil"
)

// writeGraphFile writes g in the binary format under a temp dir.
func writeGraphFile(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.smgr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func openDisk(t *testing.T, g *graph.Graph) *DiskGraph {
	t.Helper()
	d, err := OpenDiskGraph(writeGraphFile(t, g))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// matchJacobi holds the streamed solve to Jacobi on one worker, bit
// for bit in scores, residuals and iteration counts, on six random
// graphs with the jump vector jump(n).
func matchJacobi(t *testing.T, jump func(n int) Vector) {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 6; trial++ {
		g := testutil.RandomGraph(rng, 200+rng.Intn(5000), 6)
		n := g.NumNodes()
		d := openDisk(t, g)
		if d.NumNodes() != n || d.m != g.NumEdges() {
			t.Fatalf("opened %d nodes / %d edges, want %d / %d", d.NumNodes(), d.m, n, g.NumEdges())
		}
		v := jump(n)
		cfg := DefaultConfig()
		cfg.Workers = 1
		mem, err := Jacobi(g, v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		disk, err := d.Jacobi(v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(disk.Scores, mem.Scores) || !sameBits(disk.Stats.Residuals, mem.Stats.Residuals) {
			t.Fatalf("trial %d: streamed and in-memory solves differ by %v", trial, testutil.MaxAbsDiff(disk.Scores, mem.Scores))
		}
		if disk.Iterations != mem.Iterations || !disk.Converged || disk.Stats.EdgesSwept != mem.Stats.EdgesSwept {
			t.Fatalf("trial %d: streamed %d iterations (converged %v, %d edges), in-memory %d (%d edges)",
				trial, disk.Iterations, disk.Converged, disk.Stats.EdgesSwept, mem.Iterations, mem.Stats.EdgesSwept)
		}
	}
}

// TestDiskJacobiMatchesJacobi: the streamed sweep adds every in-sum's
// terms in the in-memory pull order, so with a uniform jump its scores,
// residuals and iteration counts are those of Jacobi on one worker.
func TestDiskJacobiMatchesJacobi(t *testing.T) {
	matchJacobi(t, UniformJump)
}

// TestDiskJacobiCoreJump: the same parity with a core-based jump that
// is zero off three core nodes.
func TestDiskJacobiCoreJump(t *testing.T) {
	matchJacobi(t, func(n int) Vector {
		return ScaledCoreJump(n, []graph.NodeID{3, graph.NodeID(n / 2), graph.NodeID(n - 1)}, 0.85)
	})
}

// TestDiskJacobiWarmStart: a seed at the fixpoint converges in one
// sweep to the same scores, and warm starts get the engine's length
// and score checks.
func TestDiskJacobiWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := testutil.RandomGraph(rng, 800, 6)
	n := g.NumNodes()
	d := openDisk(t, g)
	v := ScaledCoreJump(n, []graph.NodeID{1, 5, 9, 40}, 0.85)
	cold, err := d.Jacobi(v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WarmStarts = []Vector{cold.Scores}
	warm, err := d.Jacobi(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations != 1 || !warm.Stats.WarmStarted {
		t.Errorf("warm start at the fixpoint took %d sweeps (WarmStarted %v), want 1", warm.Iterations, warm.Stats.WarmStarted)
	}
	if dd := testutil.MaxAbsDiff(warm.Scores, cold.Scores); dd > 1e-12 {
		t.Errorf("warm and cold scores differ by %v", dd)
	}
	negative := cold.Scores.Clone()
	negative[1] = -negative[1] // node 1 is in the core, so its score is > 0
	for _, bad := range [][]Vector{{cold.Scores, cold.Scores}, {cold.Scores[:n-1]}, {}, {negative}} {
		cfg.WarmStarts = bad
		if _, err := d.Jacobi(v, cfg); err == nil || !strings.Contains(err.Error(), "warm start") {
			t.Errorf("%d warm starts accepted (err %v)", len(bad), err)
		}
	}
	if _, err := d.Jacobi(v[:n-1], DefaultConfig()); err == nil {
		t.Error("short jump vector accepted")
	}
}

// TestDiskJacobiRejectsConfig: the streamed solve validates cfg as the
// engine does, and names the algorithm it cannot stream.
func TestDiskJacobiRejectsConfig(t *testing.T) {
	d := openDisk(t, graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}}))
	bad := []Config{{Algorithm: AlgoGaussSouthwell}, {Damping: math.NaN()}, {Epsilon: math.Inf(1)}}
	for i, cfg := range bad {
		_, err := d.Jacobi(UniformJump(3), cfg)
		if err == nil || (i == 0 && !strings.Contains(err.Error(), "gauss-southwell")) {
			t.Errorf("config %d: err %v", i, err)
		}
	}
}

// TestDiskJacobiSolveTail: the streamed solve closes through the
// engine's tail — the same pagerank.* metrics, span attributes and
// per-sweep events, and a typed error beside the truncated result.
func TestDiskJacobiSolveTail(t *testing.T) {
	g := traceTestGraph()
	v := UniformJump(g.NumNodes())
	cfg := Config{Epsilon: 1e-300, MaxIter: 3, Workers: 1}
	mem := solveObserved(t, g, cfg, []Vector{v})
	d := openDisk(t, g)
	disk := observeSolve(t, cfg, func(cfg Config) ([]*Result, error) {
		res, err := d.Jacobi(v, cfg)
		return []*Result{res}, err
	})
	var nc *ErrNotConverged
	if !errors.As(disk.err, &nc) || len(disk.res) != 1 || disk.res[0].Iterations != 3 || nc.Iterations != 3 {
		t.Fatalf("truncated streamed solve: err %v, results %v", disk.err, disk.res)
	}
	if got, want := disk.reg.Snapshot().Counters, mem.reg.Snapshot().Counters; !reflect.DeepEqual(got, want) {
		t.Errorf("streamed solve counters %v, in-memory %v", got, want)
	}
	keys := func(o observedSolve) []string {
		var ks []string
		for k := range o.span.Attrs {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	if got, want := keys(disk), keys(mem); !reflect.DeepEqual(got, want) || !disk.span.Ended {
		t.Errorf("streamed span attributes %v (ended %v), in-memory %v", got, disk.span.Ended, want)
	}
	checkEvents(t, "streamed", disk)
}

// TestOpenDiskGraphHostileHeader: a short file whose header claims
// 2³²−1 nodes fails on its missing rows before anything is sized by
// the claimed count.
func TestOpenDiskGraphHostileHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.smgr")
	if err := os.WriteFile(path, []byte("SMGR\x01\xff\xff\xff\xff\x0f\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := OpenDiskGraph(path)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "node 2 degree") {
		t.Fatalf("err %v, want the missing row of node 2", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("opening a 3-row file claiming 2³²−1 nodes allocated %d bytes", alloc)
	}
}

// writeFile writes data to dir/name and returns its path.
func writeFile(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenDiskGraphErrors(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ name, path, want string }{
		{"missing", filepath.Join(dir, "missing"), "no such file"},
		{"text", writeFile(t, dir, "text", []byte("n 2\n0 1\n")), "bad magic"},
		{"truncated header", writeFile(t, dir, "header", []byte("SMGR\x01")), "node count"},
	} {
		if _, err := OpenDiskGraph(c.path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestDiskJacobiCorruptedRows: rows cut short fail the open, and a
// file rewritten after it was opened fails the next sweep.
func TestDiskJacobiCorruptedRows(t *testing.T) {
	dir := t.TempDir()
	g := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {2, 3}, {3, 0}})
	data, err := os.ReadFile(writeGraphFile(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskGraph(writeFile(t, dir, "trunc", data[:len(data)-2])); err == nil || !strings.Contains(err.Error(), "EOF") {
		t.Errorf("truncated rows: err %v, want one containing %q", err, "EOF")
	}
	path := writeFile(t, dir, "changed", data)
	d, err := OpenDiskGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir, "changed", data[:len(data)-2])
	if _, err := d.Jacobi(UniformJump(4), DefaultConfig()); err == nil {
		t.Error("truncated rows after open not detected")
	}
	writeFile(t, dir, "changed", []byte("SMGR\x01\x04\x00\x00\x00\x00"))
	if _, err := d.Jacobi(UniformJump(4), DefaultConfig()); err == nil || !strings.Contains(err.Error(), "changed") {
		t.Errorf("edges dropped after open: err %v", err)
	}
}

func TestDiskJacobiEmptyGraph(t *testing.T) {
	d := openDisk(t, graph.NewBuilder(0).Build())
	res, err := d.Jacobi(Vector{}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 0 {
		t.Errorf("empty graph produced %d scores", len(res.Scores))
	}
}
