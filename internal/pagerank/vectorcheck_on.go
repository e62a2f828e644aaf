//go:build vectorcheck

package pagerank

import (
	"fmt"
	"math"
)

// vectorCheckEnabled reports whether the debug guard is compiled in;
// tests use it to assert the build tag took effect.
const vectorCheckEnabled = true

// vectorCheck is the debug-build guard at the engine boundary: under
// `-tags vectorcheck` every solve result is scanned before it is handed
// to callers, and a NaN, ±Inf, or negative score fails the solve with a
// diagnostic naming the first poisoned entry. PageRank scores are
// probabilities scaled by the jump-vector mass, so any such entry means
// a poisoned input (NaN jump weight, corrupted warm start) or a solver
// bug — both far easier to localize here than three packages
// downstream in a mass estimate.
func vectorCheck(results []*Result) error {
	for j, r := range results {
		if r == nil {
			continue
		}
		for i, v := range r.Scores {
			switch {
			case math.IsNaN(v):
				return fmt.Errorf("vectorcheck: result %d has NaN score at node %d", j, i)
			case math.IsInf(v, 0):
				return fmt.Errorf("vectorcheck: result %d has %v score at node %d", j, v, i)
			case v < 0:
				return fmt.Errorf("vectorcheck: result %d has negative score %v at node %d", j, v, i)
			}
		}
	}
	return nil
}
