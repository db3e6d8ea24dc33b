//go:build !race

package sim

// raceEnabled reports that the race detector is on; its instrumentation
// inflates allocation counts, so AllocsPerRun regression tests skip.
const raceEnabled = false
