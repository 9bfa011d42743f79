package transport

// RaceEnabled lets the external test package skip allocation gates under
// the race detector.
const RaceEnabled = raceEnabled

// seenLen reports the shard's cached-response count.
func (sh *shard) seenLen() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.seen)
}
