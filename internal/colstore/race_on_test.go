//go:build race

package colstore

// raceEnabled reports that the race detector is active; its instrumentation
// may add heap allocations, so allocation-count assertions must be skipped.
const raceEnabled = true
