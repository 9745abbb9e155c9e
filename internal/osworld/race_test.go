//go:build race

package osworld

// Allocation counts are not checked in race builds (alloc_test.go).
func init() { raceEnabled = true }
