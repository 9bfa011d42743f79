//go:build race

package transport

// raceEnabled reports that the race detector is active; its
// instrumentation inflates allocation counts, so the alloc gates skip.
const raceEnabled = true

var poisonBlock = func() []byte {
	b := make([]byte, wholeMsgLimit)
	for i := range b {
		b[i] = 0xDB
	}
	return b
}()

// poison overwrites a message buffer on its way back to the pool, so a
// handler that kept its request payload past the response reads garbage
// in every -race test instead of stale bytes that happen to be right.
func poison(b []byte) { copy(b, poisonBlock) }
