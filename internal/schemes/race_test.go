//go:build race

package schemes

// Under the race detector sync.Pool drops objects at random, so a
// comparison that reuses pooled scratch allocates a varying number of
// times.
func init() { raceEnabled = true }
