//go:build race

package sensitivity

// Under the race detector sync.Pool drops objects at random, so a sweep
// that reuses pooled scratch allocates a varying number of times.
func init() { raceEnabled = true }
