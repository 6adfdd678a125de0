//go:build !race

package main

// raceEnabled reports that the race detector is active.
const raceEnabled = false
