//go:build race

package ckks

// raceEnabled reports that this test binary runs under the race detector,
// under which sync.Pool drops a share of its Puts and byte-level allocation
// measurements mean nothing.
const raceEnabled = true
