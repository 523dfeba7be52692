//go:build !race

package edgepulse_test

// raceEnabled reports that the race detector is active; timing tests
// skip themselves under it.
const raceEnabled = false
