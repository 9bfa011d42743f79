//go:build !race

package backend

// poison is a no-op without the race detector (see race_enabled.go).
func poison([]byte) {}
