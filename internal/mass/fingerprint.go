package mass

import (
	"sort"

	"spammass/internal/graph"
	"spammass/internal/obs"
)

// Fingerprint condenses one epoch's detection operating point into a
// fixed set of numbers: how much of the examined set crossed the spam
// threshold, how the relative-mass distribution is shaped, how much
// spam mass the detector sees in total, and what the solve cost. The
// serve tier's drift watchdog compares consecutive fingerprints — a
// jump in any dimension means the detector's behavior changed, whether
// from graph churn, a threshold edit, or a solver regression, and an
// operator should look before trusting the labels.
type Fingerprint struct {
	// Epoch of the snapshot the fingerprint describes; 0 when unknown.
	Epoch uint64 `json:"epoch,omitempty"`
	// Nodes is the total node count of the estimates.
	Nodes int `json:"nodes"`
	// NodesAboveRho is |T|: nodes with scaled PageRank ≥ ρ.
	NodesAboveRho int `json:"nodes_above_rho"`
	// Candidates is |S|: nodes in T with m̃ ≥ τ (Algorithm 2 output).
	Candidates int `json:"candidates"`
	// SpamFraction is |S| / |T|, or 0 when T is empty.
	SpamFraction float64 `json:"spam_fraction"`
	// TotalSpamMass is the summed positive scaled absolute mass over T
	// — the total boosting the detector attributes to spam this epoch.
	TotalSpamMass float64 `json:"total_spam_mass"`
	// RelMassDeciles are the 11 decile values (min..max) of m̃ over T,
	// nil when T is empty.
	RelMassDeciles []float64 `json:"rel_mass_deciles,omitempty"`
	// SolveIterations and EdgesSwept are the cost of the batched solve
	// that produced the estimates, 0 when no stats were recorded.
	SolveIterations int   `json:"solve_iterations"`
	EdgesSwept      int64 `json:"edges_swept"`
}

// FingerprintOf extracts the epoch fingerprint from estimates under
// the detection thresholds in dcfg. It shares the candidate rule with
// Detect, so a fingerprint can never disagree with the candidate list.
func FingerprintOf(e *Estimates, dcfg DetectConfig) *Fingerprint {
	f := &Fingerprint{Nodes: e.N()}
	var rel []float64
	for x := 0; x < e.N(); x++ {
		id := graph.NodeID(x)
		if e.ScaledPageRank(id) < dcfg.ScaledPageRankThreshold {
			continue
		}
		rel = append(rel, e.Rel[x])
		if e.Rel[x] >= dcfg.RelMassThreshold {
			f.Candidates++
		}
		if m := e.ScaledAbsMass(id); m > 0 {
			f.TotalSpamMass += m
		}
	}
	f.NodesAboveRho = len(rel)
	if f.NodesAboveRho > 0 {
		f.SpamFraction = float64(f.Candidates) / float64(f.NodesAboveRho)
	}
	sort.Float64s(rel)
	f.RelMassDeciles = obs.Deciles(rel)
	if e.SolveStats != nil {
		f.SolveIterations = e.SolveStats.Iterations
		f.EdgesSwept = e.SolveStats.EdgesSwept
	}
	return f
}

// FingerprintDim is one named dimension of a fingerprint.
type FingerprintDim struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Dims flattens the fingerprint into the fixed, ordered dimension
// vector the drift watchdog tracks. Decile dimensions use the median
// and the 90th percentile — the body and the spam-side tail of the
// relative-mass distribution; when T is empty both report 0.
func (f *Fingerprint) Dims() []FingerprintDim {
	p50, p90 := 0.0, 0.0
	if len(f.RelMassDeciles) == 11 {
		p50, p90 = f.RelMassDeciles[5], f.RelMassDeciles[9]
	}
	return []FingerprintDim{
		{Name: "spam_fraction", Value: f.SpamFraction},
		{Name: "candidates", Value: float64(f.Candidates)},
		{Name: "nodes_above_rho", Value: float64(f.NodesAboveRho)},
		{Name: "total_spam_mass", Value: f.TotalSpamMass},
		{Name: "rel_mass_p50", Value: p50},
		{Name: "rel_mass_p90", Value: p90},
		{Name: "solve_iterations", Value: float64(f.SolveIterations)},
		{Name: "edges_swept", Value: float64(f.EdgesSwept)},
	}
}
