//go:build !race

package ckks

// raceEnabled reports whether this test binary runs under the race detector.
const raceEnabled = false
