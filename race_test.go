//go:build race

package hsfq_test

// The race detector's runtime adds a varying few allocations to some
// calls, so guards that pin a nonzero count skip under it.
func init() { raceEnabled = true }
