//go:build race

package txclient_test

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under -race because its instrumentation
// allocates.
const raceEnabled = true
