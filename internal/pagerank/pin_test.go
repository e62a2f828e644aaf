package pagerank

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

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
// assembled core at the served ε = 1e-11: a change to pushRun that
// moves any value here changes what is served, not just how fast. Each
// of the (p, p′) columns is pushed cold from x = 0 and warm from the
// other column's cold fixpoint scaled by 5/4, which leaves residuals
// of both signs and drives scores that are truly 0 down to 0 through
// the clamp. A kernel that reorders the worklist, enqueues a node
// twice, or evaluates any float expression differently moves at least
// one digest or counter. The engine must then return the same bits at
// one and two workers, where the two columns are pushed concurrently.
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

	want := map[string]pushPin{
		"cold/uniform": {12, 186965, 1108964, 0x3da5fd7d26bfcd0a,
			"f5c117801630568de8193fe07847dd068b45b2f0ba8d20cfd584d569f43d254c",
			"4304f025d8ebb279be59882a81f02e3f9bb1a8c558094109355ab41271aae358"},
		"cold/core": {11, 144369, 739315, 0x3da5fd4b2028dadd,
			"6ec6fa8e21cb1c5bdd4ba231aa9494952465a1bc70de5a820eb06f5767aee479",
			"4cdde949dc527127f9bf2fd3b021478f0f26d0bbfa6a672a12ea84567526e834"},
		"warm/uniform": {12, 181689, 1096622, 0x3da5fcf47ef465d5,
			"ca1c0cd9af81de369c8097ce50631182f4463a2dc4e6b07365a9ab61f4c781f0",
			"9457d62c0d27f505eb8ce4f5ec8dfcbeb65c503aeecc0ac4656cfa88984458cd"},
		"warm/core": {12, 165123, 1010536, 0x3da5fd2526773ceb,
			"a0939897374df45cae1f88b6dfd0ef098d14b2b67da2251ec8ce2fc426308271",
			"37cc25df8d8c2f0eb6705717bb0fec37513ea50e2f8b803b53109568ee4f226d"},
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
		pushRun(g, eng.inv, cfg.Damping, x, v, warm != nil, cfg.Epsilon, cfg.MaxIter, func(rs float64) { trace = append(trace, rs) }, st)
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
