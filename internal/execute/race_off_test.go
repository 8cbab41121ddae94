//go:build !race

package execute_test

// raceEnabled reports whether this test binary runs under the race detector.
const raceEnabled = false
