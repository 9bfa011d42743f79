//go:build race

package mcc

// raceEnabled reports that the race detector is active, and with it the
// twin execution of every replayed request (lambdaReplay.twin).
const raceEnabled = true
