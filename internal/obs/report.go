package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// GraphInfo describes the processed graph.
type GraphInfo struct {
	Path   string `json:"path,omitempty"`
	Format string `json:"format,omitempty"`
	Nodes  int    `json:"nodes"`
	Edges  int64  `json:"edges"`
	// Bytes is the on-disk size read while loading, when known.
	Bytes int64 `json:"bytes,omitempty"`
	// LoadNS is the load wall time in nanoseconds, when known.
	LoadNS int64 `json:"load_ns,omitempty"`
}

// DetectionRecord is one node's detection outcome: the row format of
// the spammass -json output and the source of every /v1 host record.
type DetectionRecord struct {
	Node int64  `json:"node"`
	Host string `json:"host,omitempty"`
	// P and PCore are the scaled PageRank p and core-based p'.
	P     float64 `json:"p"`
	PCore float64 `json:"p_core"`
	// AbsMass is M̃ in scaled units; RelMass is m̃.
	AbsMass float64 `json:"abs_mass"`
	RelMass float64 `json:"rel_mass"`
	// Label is "spam" for nodes crossing both Algorithm 2 thresholds,
	// "good" otherwise.
	Label string `json:"label"`
}

// Labels for DetectionRecord.Label.
const (
	LabelSpam = "spam"
	LabelGood = "good"
)

// WriteJSONLines emits one compact JSON object per record — the
// spammass -json and -host output format.
func WriteJSONLines(w io.Writer, recs []DetectionRecord) error {
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("obs: encoding detection record: %w", err)
		}
	}
	return nil
}

// Deciles returns the 0%,10%,…,100% quantiles of values (11 entries),
// or nil for an empty input. values must be sorted ascending.
func Deciles(sorted []float64) []float64 {
	n := len(sorted)
	if n == 0 {
		return nil
	}
	out := make([]float64, 11)
	for i := range out {
		// Nearest-rank on the sorted values; i=10 is the maximum.
		idx := i * (n - 1) / 10
		out[i] = sorted[idx]
	}
	return out
}
