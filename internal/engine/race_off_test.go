//go:build !race

package engine

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions only hold without instrumentation.
const raceEnabled = false
