package osworld

import (
	"testing"

	"repro/internal/office/excel"
	"repro/internal/office/slides"
	"repro/internal/office/word"
)

// raceEnabled is set in race builds (race_test.go), where the allocation
// budgets are not checked.
var raceEnabled bool

// TestAppBuildAllocs bounds what building a session's application costs.
// Gallery and combo-box items are built only when first opened, so a fresh
// instance allocates for what a session can see: Word 4.6k, Excel 8.8k and
// PowerPoint 4.4k allocations, against 19.7k, 20.9k and 18.2k when every
// item was built eagerly. The budgets are about twice the lazy counts.
func TestAppBuildAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		build  func()
		budget float64
	}{
		{"Word", func() { word.New() }, 9500},
		{"Excel", func() { excel.New() }, 17500},
		{"PowerPoint", func() { slides.New(12) }, 9000},
	} {
		allocs := testing.AllocsPerRun(5, c.build)
		t.Logf("%s: %.0f allocs per build", c.name, allocs)
		if allocs > c.budget && !raceEnabled {
			t.Errorf("%s build allocates %.0f, budget %.0f", c.name, allocs, c.budget)
		}
	}
}
