package ung

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"repro/internal/appkit"
	"repro/internal/apps/filemgr"
	"repro/internal/apps/settings"
	"repro/internal/office/excel"
	"repro/internal/office/slides"
	"repro/internal/office/word"
	"repro/internal/uia"
)

// catalogFactories mirrors agent.Factories (which this package cannot
// import): the five evaluated applications, in agent.AppNames order.
var catalogFactories = []struct {
	name string
	new  func() *appkit.App
}{
	{"Word", func() *appkit.App { return word.New().App }},
	{"Excel", func() *appkit.App { return excel.New().App }},
	{"PowerPoint", func() *appkit.App { return slides.New(12).App }},
	{"Settings", func() *appkit.App { return settings.New().App }},
	{"Files", func() *appkit.App { return filemgr.New().App }},
}

// catalogGolden pins the simulated cost of ripping each catalog app: the
// sequential rip's Stats (simulated clock included), its graph's
// EncodeBinary digest and size in bytes (the modelstore's budget cost),
// plus the 4-worker rip's click and snapshot totals and its simulated clock
// (seeding plus the 4-worker makespan, a function of the graph alone).
// Capture-path optimisations must leave every figure unchanged.
var catalogGolden = map[string]struct {
	nodes, edges, explored, skipped, blocked int
	clicks, snapshots                        int
	simulated                                time.Duration
	sha256                                   string
	bytes                                    int
	par4Clicks, par4Snapshots                int
	par4Simulated                            time.Duration
}{
	"Word":       {3798, 3808, 3609, 186, 2, 11810, 15423, 3258250 * time.Millisecond, "343c3eff955bc4663ce86d3373348ff55e989b8779756d9f79a43a1b5361990e", 365838, 11810, 15423, 815020 * time.Millisecond},
	"Excel":      {3681, 3698, 3497, 181, 2, 9440, 12941, 2696350 * time.Millisecond, "18341748bea5812ae929a8ec04b3b9bad0cd8d266bda56045c15732ad491072a", 344655, 9440, 12941, 674500 * time.Millisecond},
	"PowerPoint": {3475, 3482, 3306, 164, 4, 9261, 12573, 2626830 * time.Millisecond, "407d5e22fe2845945443c3c1314550092185c1d7bd67924bf072736c90d0aece", 350505, 9261, 12573, 657110 * time.Millisecond},
	"Settings":   {558, 558, 429, 126, 2, 1162, 1594, 332060 * time.Millisecond, "fbb56af8b78bce8dbe397d007aa8a9ba5d8c3908962d3391b3e7828721516b42", 61996, 1162, 1594, 83360 * time.Millisecond},
	"Files":      {297, 348, 201, 93, 2, 410, 614, 124900 * time.Millisecond, "fb313ee2b706bafae0b5a8ac05f120c998dabcd540305c1822fa374fed8bcbc2", 25601, 410, 614, 31570 * time.Millisecond},
}

func TestCatalogRipStatsGolden(t *testing.T) {
	for _, app := range catalogFactories {
		t.Run(app.name, func(t *testing.T) {
			want := catalogGolden[app.name]
			g, st, err := Rip(app.new(), Config{})
			if err != nil {
				t.Fatal(err)
			}
			got := [...]int{st.Nodes, st.Edges, st.Explored, st.Skipped, st.Blocked, st.Clicks, st.Snapshots}
			exp := [...]int{want.nodes, want.edges, want.explored, want.skipped, want.blocked, want.clicks, want.snapshots}
			if got != exp {
				t.Errorf("nodes/edges/explored/skipped/blocked/clicks/snapshots = %v, want %v", got, exp)
			}
			if st.SimulatedTime != want.simulated {
				t.Errorf("SimulatedTime = %v, want %v", st.SimulatedTime, want.simulated)
			}
			bin, err := EncodeBinary(g)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(bin); hex.EncodeToString(sum[:]) != want.sha256 {
				t.Errorf("graph digest = %x, want %s", sum, want.sha256)
			}
			if len(bin) != want.bytes {
				t.Errorf("snapshot is %d B, want %d B", len(bin), want.bytes)
			}

			_, pst, err := RipParallel(app.new, Config{}, 4)
			if err != nil {
				t.Fatal(err)
			}
			if pst.Clicks != want.par4Clicks || pst.Snapshots != want.par4Snapshots {
				t.Errorf("4-worker clicks/snapshots = %d/%d, want %d/%d",
					pst.Clicks, pst.Snapshots, want.par4Clicks, want.par4Snapshots)
			}
			if pst.SimulatedTime != want.par4Simulated {
				t.Errorf("4-worker SimulatedTime = %v, want %v", pst.SimulatedTime, want.par4Simulated)
			}
		})
	}
}

// onScreen returns the on-screen element with the given automation id in any
// open window, or nil.
func onScreen(a *appkit.App, autoID string) *uia.Element {
	for _, w := range a.Desk.Windows() {
		if e := w.FindByAutomationID(autoID); e != nil && e.OnScreen() {
			return e
		}
	}
	return nil
}

// wordDepth2Frame builds Word and the frame Text Effects → Text Outline →
// More Colors…: a click path of two steps whose activation reveals the
// color picker's dialog.
func wordDepth2Frame(t testing.TB) (*appkit.App, Frame) {
	t.Helper()
	a := word.New().App
	var f Frame
	for i, autoID := range []string{"btnTextEffects", "btnTextOutline", "clrPickerMore"} {
		el := onScreen(a, autoID)
		if el == nil {
			t.Fatalf("%s not on screen", autoID)
		}
		if i == 2 {
			f.ID = el.ControlID()
			break
		}
		f.Path = append(f.Path, el.ControlID())
		if err := a.Desk.Click(el); err != nil {
			t.Fatal(err)
		}
	}
	a.SoftReset()
	return a, f
}

// siblingExpandAllocBudget bounds the allocations of a sibling expansion
// from a checkpoint: the fixed depth-2 Word frame expanded again through
// the cursor that expanded it, which rewinds to the checkpoint after its
// click path, clicks, captures once and differences. Allocation counts are
// deterministic, so this gates the expansion's footprint where wall-clock
// cannot.
const siblingExpandAllocBudget = 9

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

func TestSiblingExpandAllocs(t *testing.T) {
	a, f := wordDepth2Frame(t)
	cur := NewCursor(a)
	first := cur.Expand("", f)
	if first.Outcome != ExpandOK || len(first.Reveals) == 0 {
		t.Fatalf("frame outcome %v with %d reveals, want OK with reveals", first.Outcome, len(first.Reveals))
	}
	if first.Clicks != 3 || first.Snapshots != 4 {
		t.Errorf("clicks/snapshots = %d/%d, want 3/4 (depth k costs k+1 clicks, k+2 snapshots)",
			first.Clicks, first.Snapshots)
	}
	var again Expansion
	allocs := testing.AllocsPerRun(20, func() { again = cur.Expand("", f) })
	t.Logf("sibling expansion: %.0f allocs/op, %d reveals", allocs, len(first.Reveals))
	if allocs > siblingExpandAllocBudget && !raceEnabled {
		t.Errorf("a sibling expansion allocates %.0f/op, budget %d", allocs, siblingExpandAllocBudget)
	}
	// From a checkpoint, the expansion still reports the from-scratch cost.
	if !reflect.DeepEqual(again, first) {
		t.Errorf("expansion from the checkpoint differs from the first:\n%+v\nvs\n%+v", again, first)
	}
}
