//go:build race

package serve

// raceEnabled reports a -race build, where allocation counts are not
// the production ones.
const raceEnabled = true
