//go:build race

package shard

// raceEnabled: the race detector's sync.Pool drops items at random, so
// allocation pins cannot hold under it.
const raceEnabled = true
