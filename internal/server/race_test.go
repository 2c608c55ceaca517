//go:build race

package server

// The race detector instruments allocations, so allocation bounds are
// not checked under -race.
func init() { raceEnabled = true }
