package transport

// RaceEnabled lets the external test package skip allocation gates under
// the race detector.
const RaceEnabled = raceEnabled
