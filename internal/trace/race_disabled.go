//go:build !race

package trace

const raceEnabled = false

// poison is a no-op without the race detector (see race_enabled.go).
func poison([]byte) {}
