package mass

import (
	"fmt"
	"sort"

	"spammass/internal/graph"
)

// DetectConfig holds the two thresholds of Algorithm 2.
type DetectConfig struct {
	// RelMassThreshold is τ: nodes with m̃ ≥ τ become spam candidates.
	RelMassThreshold float64
	// ScaledPageRankThreshold is ρ in the paper's scaled units
	// (n/(1−c) × raw score): only nodes with scaled PageRank ≥ ρ are
	// examined; a node with small PageRank is not a beneficiary of
	// considerable boosting, its mass estimate rests on little
	// evidence, and tiny absolute errors would blow up its relative
	// mass (the three reasons of Section 3.6).
	ScaledPageRankThreshold float64
}

// DefaultDetectConfig returns the thresholds of the paper's
// experiments: ρ = 10 (scaled) and τ = 0.98, the threshold at which
// detection precision was found to be virtually 100% once core
// anomalies are fixed.
func DefaultDetectConfig() DetectConfig {
	return DetectConfig{RelMassThreshold: 0.98, ScaledPageRankThreshold: 10}
}

// Candidate is one spam candidate produced by Detect.
type Candidate struct {
	Node graph.NodeID
	// ScaledPageRank is p_x in n/(1−c) units.
	ScaledPageRank float64
	// RelMass is the estimated relative spam mass m̃_x.
	RelMass float64
}

// Detect runs Algorithm 2 on precomputed estimates: every node x with
// scaled PageRank ≥ ρ and m̃_x ≥ τ is returned as a spam candidate,
// sorted by decreasing relative mass (ties by decreasing PageRank).
func Detect(e *Estimates, cfg DetectConfig) []Candidate {
	var out []Candidate
	for x := 0; x < e.N(); x++ {
		id := graph.NodeID(x)
		spr := e.ScaledPageRank(id)
		if spr < cfg.ScaledPageRankThreshold {
			continue
		}
		if e.Rel[x] >= cfg.RelMassThreshold {
			out = append(out, Candidate{Node: id, ScaledPageRank: spr, RelMass: e.Rel[x]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		// lint:ignore floatcmp exact tie-break keeps the candidate order a strict weak ordering
		if out[i].RelMass != out[j].RelMass {
			return out[i].RelMass > out[j].RelMass
		}
		// lint:ignore floatcmp exact tie-break keeps the candidate order a strict weak ordering
		if out[i].ScaledPageRank != out[j].ScaledPageRank {
			return out[i].ScaledPageRank > out[j].ScaledPageRank
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// DetectSet is Detect returning the candidate set S as a lookup map.
func DetectSet(e *Estimates, cfg DetectConfig) map[graph.NodeID]bool {
	cands := Detect(e, cfg)
	s := make(map[graph.NodeID]bool, len(cands))
	for _, c := range cands {
		s[c.Node] = true
	}
	return s
}

// FilterByPageRank returns the node set T of the experiments
// (Section 4.4): all nodes with scaled PageRank ≥ ρ, in increasing ID
// order.
func FilterByPageRank(e *Estimates, rho float64) []graph.NodeID {
	var out []graph.NodeID
	for x := 0; x < e.N(); x++ {
		if e.ScaledPageRank(graph.NodeID(x)) >= rho {
			out = append(out, graph.NodeID(x))
		}
	}
	return out
}

// TopByAbsMass returns the k nodes with the largest estimated absolute
// mass, in decreasing order — the §4.6 inspection view in which
// reputable giants (the paper's www.macromedia.com) intermix with spam,
// demonstrating why absolute mass alone does not separate the classes.
func TopByAbsMass(e *Estimates, k int) []Candidate {
	idx := make([]int, e.N())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return e.Abs[idx[i]] > e.Abs[idx[j]] })
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]Candidate, 0, k)
	for _, x := range idx[:k] {
		out = append(out, Candidate{
			Node:           graph.NodeID(x),
			ScaledPageRank: e.ScaledPageRank(graph.NodeID(x)),
			RelMass:        e.Rel[x],
		})
	}
	return out
}

// String renders a candidate compactly for logs and examples.
func (c Candidate) String() string {
	return fmt.Sprintf("node %d (scaled PR %.2f, rel. mass %.3f)", c.Node, c.ScaledPageRank, c.RelMass)
}
