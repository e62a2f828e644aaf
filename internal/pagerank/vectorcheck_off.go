//go:build !vectorcheck

package pagerank

// vectorCheckEnabled reports whether the debug guard is compiled in.
const vectorCheckEnabled = false

// vectorCheck is a no-op in regular builds; build with
// `-tags vectorcheck` to scan every solve result for NaN, ±Inf, and
// negative scores at the engine boundary.
func vectorCheck([]*Result) error { return nil }
