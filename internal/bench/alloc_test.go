package bench

import (
	"runtime"
	"testing"

	"repro/internal/osworld"
)

// sessionAllocBudget and sessionByteBudget bound the mean allocations and
// allocated bytes of one warm single-run session over the whole grid: every
// (setting, task) cell once, models already built and their name indexes
// already filled, each app's pooled instance already built. The figures
// are deterministic up to a few allocations per session. A session makes
// about 322 allocations of 35.8 KB (go1.24), budgeted at about 10% more.
// Before sessions checked their app out of the instance pool, staleness
// injection descended along the target's path and the GUI agent reused its
// snapshot buffer and visible-id set, it made 5,240 of 380 KB; before
// labels were computed from screen positions, control ids extended their
// parent's cached path, the GUI agent matched its click chain without an id
// map and targets resolved through the model's name index, 7,260 of 570 KB.
// Tighten the budgets when the session path gets leaner; never loosen them.
const (
	sessionAllocBudget = 360
	sessionByteBudget  = 39_250
)

// raceEnabled is set in race builds (race_test.go), where the budget is
// not checked.
var raceEnabled bool

func TestSessionAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	m := sharedModels(t)
	tasks := osworld.All()
	grid := func() {
		for _, set := range Matrix() {
			for _, task := range tasks {
				RunCell(m, set, task, 1, 1)
			}
		}
	}
	sessions := len(Matrix()) * len(tasks)
	allocs := testing.AllocsPerRun(1, grid) / float64(sessions)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	grid()
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / uint64(sessions)
	t.Logf("warm single-run session, mean over %d cells: %.0f allocs, %d bytes", sessions, allocs, bytes)
	if raceEnabled {
		return
	}
	if allocs > sessionAllocBudget {
		t.Errorf("a session allocates %.0f times, budget %d", allocs, sessionAllocBudget)
	}
	if bytes > sessionByteBudget {
		t.Errorf("a session allocates %d bytes, budget %d", bytes, sessionByteBudget)
	}
}
