//go:build race

package core

// raceEnabled reports that the race detector is on: it changes
// allocation counts (sync.Pool drops a share of Puts), so allocation
// bars skip under it and run in CI's non-race step.
const raceEnabled = true
