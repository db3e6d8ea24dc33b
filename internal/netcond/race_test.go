//go:build race

package netcond

// raceEnabled reports that the race detector is on; its instrumentation
// inflates allocation sizes, so the bytes regression test skips.
const raceEnabled = true
