//go:build race

package backend

// poison overwrites a reply on its way back to the free list, so a
// caller that reads a reply after recycling it, or a backend that
// recycles one before its caller has read it, sees garbage in every
// -race test instead of stale bytes that happen to be right.
func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}
