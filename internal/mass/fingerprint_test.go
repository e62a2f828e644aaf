package mass

import (
	"testing"

	"spammass/internal/pagerank"
)

// fpEstimates builds a 4-node estimate where, under c=0.85 and the
// scaled threshold ρ=10, nodes 1..3 are in T (scaled PR ≥ 10) and
// node 0 is below it; nodes 2 and 3 cross τ=0.9.
func fpEstimates() (*Estimates, DetectConfig) {
	const c = 0.85
	// scaled = p * n/(1-c) = p * 26.67; p=0.3 → 8, p=0.5 → 13.3.
	e := &Estimates{
		P:       pagerank.Vector{0.3, 0.5, 0.6, 0.7},
		PCore:   pagerank.Vector{0.3, 0.4, 0.05, 0.02},
		Abs:     pagerank.Vector{0.0, 0.1, 0.55, 0.68},
		Rel:     pagerank.Vector{0.0, 0.2, 0.91, 0.97},
		Damping: c,
		SolveStats: &pagerank.SolveStats{
			Iterations: 42,
			EdgesSwept: 1234,
		},
	}
	return e, DetectConfig{RelMassThreshold: 0.9, ScaledPageRankThreshold: 10}
}

func TestFingerprintOf(t *testing.T) {
	e, dcfg := fpEstimates()
	f := FingerprintOf(e, dcfg)
	if f.Nodes != 4 {
		t.Fatalf("Nodes = %d, want 4", f.Nodes)
	}
	if f.NodesAboveRho != 3 {
		t.Fatalf("NodesAboveRho = %d, want 3", f.NodesAboveRho)
	}
	if f.Candidates != 2 {
		t.Fatalf("Candidates = %d, want 2", f.Candidates)
	}
	if got, want := f.SpamFraction, 2.0/3.0; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("SpamFraction = %v, want %v", got, want)
	}
	// Total spam mass: positive scaled abs mass over T = (0.1+0.55+0.68)·n/(1−c).
	wantMass := (0.1 + 0.55 + 0.68) * 4 / (1 - 0.85)
	if got := f.TotalSpamMass; got < wantMass-1e-9 || got > wantMass+1e-9 {
		t.Fatalf("TotalSpamMass = %v, want %v", got, wantMass)
	}
	if len(f.RelMassDeciles) != 11 {
		t.Fatalf("RelMassDeciles has %d entries, want 11", len(f.RelMassDeciles))
	}
	if f.RelMassDeciles[0] != 0.2 || f.RelMassDeciles[10] != 0.97 {
		t.Fatalf("decile min/max = %v/%v, want 0.2/0.97", f.RelMassDeciles[0], f.RelMassDeciles[10])
	}
	if f.SolveIterations != 42 || f.EdgesSwept != 1234 {
		t.Fatalf("solve cost = %d/%d, want 42/1234", f.SolveIterations, f.EdgesSwept)
	}

	// The candidate rule must agree with Detect.
	if got := len(Detect(e, dcfg)); got != f.Candidates {
		t.Fatalf("Detect found %d candidates, fingerprint says %d", got, f.Candidates)
	}
}

func TestFingerprintDims(t *testing.T) {
	e, dcfg := fpEstimates()
	f := FingerprintOf(e, dcfg)
	dims := f.Dims()
	wantNames := []string{
		"spam_fraction", "candidates", "nodes_above_rho", "total_spam_mass",
		"rel_mass_p50", "rel_mass_p90", "solve_iterations", "edges_swept",
	}
	if len(dims) != len(wantNames) {
		t.Fatalf("Dims has %d entries, want %d", len(dims), len(wantNames))
	}
	byName := map[string]float64{}
	for i, d := range dims {
		if d.Name != wantNames[i] {
			t.Fatalf("dim %d = %q, want %q (order is part of the contract)", i, d.Name, wantNames[i])
		}
		byName[d.Name] = d.Value
	}
	if byName["candidates"] != 2 || byName["nodes_above_rho"] != 3 {
		t.Fatalf("counts wrong: %+v", byName)
	}
	if byName["rel_mass_p50"] != f.RelMassDeciles[5] || byName["rel_mass_p90"] != f.RelMassDeciles[9] {
		t.Fatalf("decile dims wrong: %+v vs %v", byName, f.RelMassDeciles)
	}
	if byName["solve_iterations"] != 42 || byName["edges_swept"] != 1234 {
		t.Fatalf("cost dims wrong: %+v", byName)
	}

	// Empty T: dims must be well-defined zeros, not NaN.
	empty := FingerprintOf(&Estimates{P: pagerank.Vector{1e-9}, PCore: pagerank.Vector{1e-9}, Abs: pagerank.Vector{0}, Rel: pagerank.Vector{0}, Damping: 0.85}, dcfg)
	for _, d := range empty.Dims() {
		if d.Value != 0 {
			t.Fatalf("empty-T dim %s = %v, want 0", d.Name, d.Value)
		}
	}
}
