//go:build race

package dqm

// raceEnabled reports whether the race detector is on: it drops pooled
// objects at random, so allocation counts read higher under it.
const raceEnabled = true
