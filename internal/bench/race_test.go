//go:build race

package bench

// Race builds instrument the heap, so allocation counts are not checked
// there.
func init() { raceEnabled = true }
