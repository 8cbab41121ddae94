//go:build race

package execute_test

// raceEnabled reports that this test binary runs under the race detector,
// which makes the bench-config SqueezeNet runs too slow for the whole-network
// tests and distorts allocation counts.
const raceEnabled = true
