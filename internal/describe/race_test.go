//go:build race

package describe

// Race builds allocate differently, so allocation budgets are not checked.
func init() { raceEnabled = true }
