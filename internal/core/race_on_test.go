//go:build race

package core_test

// raceEnabled reports that this test binary runs under the race detector,
// which makes compiling the full-size networks too slow.
const raceEnabled = true
