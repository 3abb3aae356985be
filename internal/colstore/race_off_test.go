//go:build !race

package colstore

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
