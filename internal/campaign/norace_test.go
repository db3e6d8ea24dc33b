//go:build !race

package campaign

// raceEnabled reports that the race detector is on; a single-worker test
// whose cost it multiplies skips.
const raceEnabled = false
