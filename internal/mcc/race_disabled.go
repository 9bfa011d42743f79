//go:build !race

package mcc

const raceEnabled = false
