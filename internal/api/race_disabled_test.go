//go:build !race

package api

// raceEnabled reports that the race detector is active; allocation-count
// assertions are unreliable under its instrumentation and are skipped.
const raceEnabled = false
