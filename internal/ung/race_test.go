//go:build race

package ung

// The race detector makes sync.Pool drop a random share of Puts, so pooled
// allocation counts are not deterministic in race builds.
func init() { raceEnabled = true }
