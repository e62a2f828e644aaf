package pagerank

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/testutil"
	"spammass/internal/webgen"
)

// pushPin is what one pushed column must reproduce bit for bit: its
// work counters, the bits of its final residual, and SHA-256 digests
// of its score bits and of its per-scan residuals.
type pushPin struct {
	scans         int
	pushes, edges int64
	final         uint64
	scores, trace string
}

// floatDigest is the hex SHA-256 of xs's IEEE-754 bits, little-endian.
func floatDigest(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPushBitIdentity pins the Gauss-Southwell kernel to one exact
// floating-point trajectory, on a 20k-host webgen world with its
// assembled core at ε = 1e-11: a change to pushRun that moves any value
// here changes what is served, not just how fast. Each of the (p, p′)
// columns is pushed cold from x = 0 and warm from the other column's
// cold fixpoint scaled by 5/4, which leaves residuals of both signs and
// drives scores that are truly 0 down to 0 through the clamp. A kernel
// that reorders the worklist, enqueues a node twice, or evaluates any
// float expression differently moves at least one digest or counter.
// The engine must then return the same bits at one and two workers,
// where the two columns are pushed concurrently.
func TestPushBitIdentity(t *testing.T) {
	wcfg := webgen.DefaultConfig(20_000)
	wcfg.Seed = 11
	h, core, err := testutil.Web(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	g := h.Graph
	n := g.NumNodes()
	vs := []Vector{UniformJump(n), ScaledCoreJump(n, core, 0.85)}
	cfg := Config{Damping: 0.85, Epsilon: 1e-11, MaxIter: 1000, Algorithm: AlgoGaussSouthwell}

	// Re-recorded when the push was restricted to the hosts with
	// out-links: dangling hosts are no longer pushed, but set in one
	// pass at the end, so every counter, residual and score moved then.
	want := map[string]pushPin{
		"cold/uniform": {11, 120982, 949534, 0x3da5fd3ae3674f2d,
			"7799b1b5f65941eda00e66c4d4aee354b5c2cb1d274c8a3dab6860ab8292c5e6",
			"6052e329e0f17a3fe7bbc3c3dc01f375ceb1e724365d53eccdec2e8a285d563c"},
		"cold/core": {12, 92208, 594687, 0x3da5fce8057cfd3d,
			"898f185a8942f01338513685465fbb0ed4d86c4947fa14923ba35d564d367a9f",
			"0ab2a10275f8d5f7276f754436e92570a9cb54a64655c502c28b8a7e06e0ab5d"},
		"warm/uniform": {12, 113887, 915477, 0x3da5fce7b1862e5b,
			"28ad6e1e94ca58bd08e0e46c553e07c4e87fda31789b0af4b69f3caae0927d7f",
			"2768a00e9c262c4c5576192291e396540264f4de0bd21c6975c356d26b6ebebd"},
		"warm/core": {12, 119077, 969783, 0x3da5fb86efb1c445,
			"c407fd65c463845f5a0a22d1cb66771c53c1e747f763d1b9c093d976746bac7d",
			"7d7424da6847dac6b2780d28f88d1f06b134966346fe68cd3b528a25825bb278"},
	}

	eng, err := NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	push := func(name string, v, warm Vector) Vector {
		t.Helper()
		x := make(Vector, n)
		copy(x, warm)
		var trace []float64
		st := &RefineStats{}
		pushRun(eng.block(), cfg.Damping, x, v, warm != nil, cfg.Epsilon, cfg.MaxIter, func(rs float64) { trace = append(trace, rs) }, st)
		got := pushPin{st.Scans, st.Pushes, st.EdgesSwept, math.Float64bits(st.FinalResidual), floatDigest(x), floatDigest(trace)}
		if !st.Converged {
			t.Errorf("%s did not converge: residual %v", name, st.FinalResidual)
		}
		if got != want[name] {
			t.Errorf("%s pushed\n\t%#v\nwant\n\t%#v", name, got, want[name])
		}
		return x
	}
	cold := []Vector{push("cold/uniform", vs[0], nil), push("cold/core", vs[1], nil)}
	// Starting at exactly the other fixpoint would leave residuals that
	// are each other's negation, hence the same push schedule; the 5/4
	// scale breaks that symmetry.
	warm := []Vector{cold[1].Clone(), cold[0].Clone()}
	for _, w := range warm {
		for i := range w {
			w[i] *= 1.25
		}
	}
	push("warm/uniform", vs[0], warm[0])
	push("warm/core", vs[1], warm[1])

	// The engine pushes the same columns, one after the other or
	// concurrently, and must return the same bits.
	for _, workers := range []int{1, 2} {
		for _, start := range []string{"cold", "warm"} {
			wc := cfg
			wc.Workers = workers
			if start == "warm" {
				wc.WarmStarts = warm
			}
			e, err := NewEngine(g, wc)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := e.SolveMany(vs)
			e.Close()
			if err != nil {
				t.Fatalf("%s at %d workers: %v", start, workers, err)
			}
			pins := []pushPin{want[start+"/uniform"], want[start+"/core"]}
			st := rs[0].Stats
			if st.Workers != workers {
				t.Errorf("%s: %d workers ran, want %d", start, st.Workers, workers)
			}
			if st.EdgesSwept != pins[0].edges+pins[1].edges {
				t.Errorf("%s at %d workers swept %d edges, want %d", start, workers, st.EdgesSwept, pins[0].edges+pins[1].edges)
			}
			if d := floatDigest(st.Residuals); d != pins[0].trace {
				t.Errorf("%s at %d workers: residual trace %s, want column 0's %s", start, workers, d, pins[0].trace)
			}
			for j, r := range rs {
				if r.Iterations != pins[j].scans || math.Float64bits(r.Residual) != pins[j].final {
					t.Errorf("%s column %d at %d workers: %d scans, residual %v; want %d, %v",
						start, j, workers, r.Iterations, r.Residual, pins[j].scans, math.Float64frombits(pins[j].final))
				}
				if d := floatDigest(r.Scores); d != pins[j].scores {
					t.Errorf("%s column %d at %d workers: scores %s, want %s", start, j, workers, d, pins[j].scores)
				}
			}
		}
	}
}

// solvePin is what one (p, p′) batch solve must reproduce bit for bit
// through the Engine: the batch's work counters and residual trace,
// and per column its scans, residual bits and score digest.
type solvePin struct {
	edges, pushes int64
	trace         string
	cols          [2]columnPin
}

type columnPin struct {
	scans  int
	final  uint64
	scores string
}

// danglingFreeWeb is TestPushBitIdentity's 20k world with one link
// added from every dangling host to the next host (mod n), so that no
// host is dangling, and its assembled core.
func danglingFreeWeb(t *testing.T) (*graph.Graph, []graph.NodeID) {
	t.Helper()
	wcfg := webgen.DefaultConfig(20_000)
	wcfg.Seed = 11
	h, core, err := testutil.Web(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	g := h.Graph
	n := g.NumNodes()
	b := graph.NewBuilder(n)
	g.Edges(func(x, y graph.NodeID) bool {
		b.AddEdge(x, y)
		return true
	})
	for x := 0; x < n; x++ {
		if g.IsDangling(graph.NodeID(x)) {
			b.AddEdge(graph.NodeID(x), graph.NodeID((x+1)%n))
		}
	}
	return b.Build(), core
}

// TestPushDanglingFreeIdentity pins the Gauss-Southwell solve on a
// webgen-derived graph with no dangling host, where the block the push
// solves over is the whole graph. The pins were recorded before the
// push was restricted to the hosts with out-links, so they hold that
// restriction to leaving a dangling-free solve exactly as it was: the
// same scores, residuals, traces, edges and pushes, cold and warm (from
// the other column's fixpoint scaled by 5/4), at one and two workers.
func TestPushDanglingFreeIdentity(t *testing.T) {
	g, core := danglingFreeWeb(t)
	n := g.NumNodes()
	for x := 0; x < n; x++ {
		if g.IsDangling(graph.NodeID(x)) {
			t.Fatalf("host %d is dangling", x)
		}
	}
	vs := []Vector{UniformJump(n), ScaledCoreJump(n, core, 0.85)}
	cfg := Config{Damping: 0.85, Epsilon: 1e-11, MaxIter: 1000, Algorithm: AlgoGaussSouthwell}

	// Recorded at the parent of the block push, whose push ran over
	// every host.
	want := map[string]solvePin{
		"cold": {2400365, 782033, "9a43928dea91261561ed80fee75d1d91a12c45fb072a4c6b556aee5e357bd443", [2]columnPin{
			{11, 0x3da5fd1523239621, "cd62b8a0c0ecfa39ce1c19325d848ccd98efff7f2c6b520cc2f2f6e6bc915bb7"},
			{11, 0x3da5fd46ac2b086e, "dab2f137be7646454cc7b8f3621af1439ef1583e16cd93f43ecbb751b2e0316f"}}},
		"warm": {2703469, 729596, "e9c63fbbac66d02aae5a6759068fc431f0ddc52749e82c8fe19fc2eb34f44e12", [2]columnPin{
			{12, 0x3da5fd71b115e64b, "d4da35a2a572e4d923576aa2e6871587878dc81a70cb7a49d44cc4f8e06efca7"},
			{12, 0x3da5fd523e914b83, "7050b50fe340cdcab9b18b582544187276ebced5937eeb3fb16c77f20593ee9f"}}},
	}

	solve := func(workers int, warm []Vector) []*Result {
		t.Helper()
		wc := cfg
		wc.Workers = workers
		wc.WarmStarts = warm
		e, err := NewEngine(g, wc)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		rs, err := e.SolveMany(vs)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	cold := solve(1, nil)
	warm := []Vector{cold[1].Scores.Clone(), cold[0].Scores.Clone()}
	for _, w := range warm {
		for i := range w {
			w[i] *= 1.25
		}
	}
	for _, workers := range []int{1, 2} {
		for _, start := range []string{"cold", "warm"} {
			var rs []*Result
			if start == "cold" {
				rs = solve(workers, nil)
			} else {
				rs = solve(workers, warm)
			}
			st := rs[0].Stats
			got := solvePin{edges: st.EdgesSwept, pushes: st.Pushes, trace: floatDigest(st.Residuals)}
			for j, r := range rs {
				if !r.Converged {
					t.Errorf("%s column %d did not converge: residual %v", start, j, r.Residual)
				}
				got.cols[j] = columnPin{r.Iterations, math.Float64bits(r.Residual), floatDigest(r.Scores)}
			}
			if got != want[start] {
				t.Errorf("%s at %d workers solved\n\t%#v\nwant\n\t%#v", start, workers, got, want[start])
			}
		}
	}
}
