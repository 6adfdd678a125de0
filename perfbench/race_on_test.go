//go:build race

package main

// raceEnabled reports whether the race detector is on; under it the
// open-loop generator cannot keep its schedule.
const raceEnabled = true
