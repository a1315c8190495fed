//go:build race

package service

// raceEnabled: the race detector makes sync.Pool drop a random quarter
// of Puts, so pooled-allocation bounds do not hold under it.
const raceEnabled = true
