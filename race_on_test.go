//go:build race

package cbb

// The race detector makes sync.Pool drop pooled items at random, so the
// pooled query scratch is re-allocated now and then and allocation counts
// are not exact in -race builds.
func init() { raceEnabled = true }
