//go:build race

package trace

// raceEnabled reports that the race detector is active, and with it the
// poisoning of recycled payloads.
const raceEnabled = true

// poison overwrites a payload on its way back to its generator, so a
// backend that reads a request's payload after completing the request
// computes on garbage in every -race test instead of on stale bytes
// that happen to be right.
func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}
