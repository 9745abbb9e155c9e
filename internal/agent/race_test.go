//go:build race

package agent

// Race builds instrument the heap and make sync.Pool drop a random share of
// Puts, so allocation counts are not checked there.
func init() { raceEnabled = true }
