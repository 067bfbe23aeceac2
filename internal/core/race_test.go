//go:build race

package core_test

// Under the race detector sync.Pool drops objects at random, so a build
// that reuses a pooled placer allocates a varying number of times.
func init() { raceEnabled = true }
