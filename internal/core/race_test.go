//go:build race

package core_test

// raceEnabled reports that the race detector is on; its instrumentation
// inflates allocation counts, so AllocsPerRun regression tests skip.
const raceEnabled = true
