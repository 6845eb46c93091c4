//go:build race

package serve

// raceEnabled reports whether the race detector is on; it adds
// allocations, so tests that pin an exact count skip under it.
const raceEnabled = true
