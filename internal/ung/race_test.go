//go:build race

package ung

// Race builds run the rip several times slower, so TestRipCursorShuffled
// checks a tenth of each application's ripped frames, and allocation
// budgets are not checked.
func init() { raceEnabled = true }
