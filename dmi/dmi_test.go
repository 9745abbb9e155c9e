package dmi_test

import (
	"context"
	"strings"
	"testing"

	"repro/dmi"
)

// TestPublicAPIEndToEnd exercises the documented workflow exactly as a
// downstream user would: offline model, fresh instance, declarative calls.
func TestPublicAPIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	model, err := dmi.Model(dmi.NewPowerPoint(8).App)
	if err != nil {
		t.Fatal(err)
	}
	if model.NodeCount() < 3000 {
		t.Fatalf("model too small: %d nodes", model.NodeCount())
	}

	app := dmi.NewPowerPoint(8)
	s := dmi.NewSession(app.App, model, dmi.ExecOptions{})

	// Access declaration.
	target := model.FindLeafByName("Standard (4:3)")
	if target == nil {
		t.Fatal("target missing")
	}
	res := s.Visit([]dmi.Command{dmi.Access(model.ID(target))})
	if !res.OK() {
		t.Fatal(res.Err)
	}
	if app.Deck.SlideSize != "Standard (4:3)" {
		t.Fatal("access declaration had no effect")
	}

	// State declaration.
	lm := s.CaptureLabels()
	sb := lm.Find("Slides Vertical Scroll Bar", dmi.ScrollBarControl)
	serr := s.Declare(lm, dmi.Declaration{Op: dmi.OpScrollbar, Labels: []string{sb}, H: dmi.NoScroll, V: 100})
	if serr != nil {
		t.Fatal(serr)
	}
	if top := app.ThumbTop(); top != 2 {
		t.Fatalf("scrolled to the end, first visible thumb is %d, want 2", top)
	}

	// Observation declaration + topology text.
	core := model.Core()
	if !strings.HasPrefix(core, "main-tree:") {
		t.Fatal("core topology malformed")
	}
	if dmi.EstimateTokens(core) < 1000 {
		t.Fatal("token estimate implausible")
	}

	// JSON command parsing (the raw LLM surface).
	cmds, err := dmi.ParseCommands([]byte(`[{"id": 1}, {"shortcut_key": "ENTER"}]`))
	if err != nil || len(cmds) != 2 {
		t.Fatalf("ParseCommands: %v %d", err, len(cmds))
	}
}

// TestModelCachedAcrossSessions: a second Model call for a structurally
// identical application is served from the process-wide store — the same
// model pointer, so zero additional rip clicks were spent — while a
// structurally different instance gets its own model.
func TestModelCachedAcrossSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	m1, err := dmi.Model(dmi.NewPowerPoint(6).App)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := dmi.Model(dmi.NewPowerPoint(6).App)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("second Model call rebuilt instead of hitting the store")
	}
	// A 3-slide deck shows fewer thumbnails than the 6-thumb viewport, so
	// it is structurally different and must get its own model.
	m3, err := dmi.Model(dmi.NewPowerPoint(3).App)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Fatal("structurally different deck shared a cache slot")
	}
}

// TestModelKeyCoversHiddenStructure: a 7-slide and a 12-slide deck share an
// identical initial screen (same 6-thumb viewport) but differ inside
// dialogs that enumerate per-slide entries, so they rip into different
// graphs and must not share a cached model.
func TestModelKeyCoversHiddenStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	m7, err := dmi.Model(dmi.NewPowerPoint(7).App)
	if err != nil {
		t.Fatal(err)
	}
	m12, err := dmi.Model(dmi.NewPowerPoint(12).App)
	if err != nil {
		t.Fatal(err)
	}
	if m7 == m12 {
		t.Fatal("decks with different hidden structure shared a cache slot")
	}
	if m7.NodeCount() == m12.NodeCount() {
		t.Fatalf("expected different topologies, both have %d nodes", m7.NodeCount())
	}
}

// TestModelKeyIgnoresOpenedLists: gallery items are built when the gallery
// first opens, but the cache key covers the whole surface either way, so an
// instance that has opened one still hits the model of one that has not.
func TestModelKeyIgnoresOpenedLists(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	m1, err := dmi.Model(dmi.NewPowerPoint(6).App)
	if err != nil {
		t.Fatal(err)
	}
	app := dmi.NewPowerPoint(6)
	opened := false
	for _, p := range app.PopupTemplates() {
		if p.Win.AutomationID() == "galTransitions" {
			p.Open(nil)
			opened = true
		}
	}
	if !opened {
		t.Fatal("transitions gallery missing")
	}
	app.CloseAllPopups()
	m2, err := dmi.Model(app.App)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Fatal("opening a gallery changed the instance's cache key")
	}
}

// TestOfflineArtifactsComposable: Rip → Transform → NewModel equals Model.
func TestOfflineArtifactsComposable(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	g, stats, err := dmi.Rip(dmi.NewWord().App, dmi.RipConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Explored == 0 || stats.Clicks == 0 {
		t.Fatal("rip stats empty")
	}
	f, ts, err := dmi.Transform(g, dmi.TransformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ts.ForestNodes == 0 || f.NodeCount() != ts.ForestNodes {
		t.Fatal("transform stats inconsistent")
	}
	m := dmi.NewModel(f)
	if m.NodeCount() != f.NodeCount() {
		t.Fatal("model ids incomplete")
	}
}

// TestBudgetedModelStorePublicAPI drives the serving-tier store exactly as
// a downstream operator would: a budget that holds one model, two
// applications cycling through it, stats exposing the traffic.
func TestBudgetedModelStorePublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	dir := t.TempDir()
	probe := dmi.NewBudgetedModelStore(dir, 0)
	word, err := probe.Build("word", func() *dmi.App { return dmi.NewWord("a").App }, dmi.ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slides, err := probe.Build("slides", func() *dmi.App { return dmi.NewPowerPoint(4).App }, dmi.ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if word.SnapshotBytes <= 0 || slides.SnapshotBytes <= 0 {
		t.Fatalf("no snapshot cost reported: word=%d slides=%d", word.SnapshotBytes, slides.SnapshotBytes)
	}

	// One byte short of both models: each fits alone (so neither takes
	// the serve-don't-cache path), the pair never does — the second build
	// must evict the first whatever their relative sizes.
	store := dmi.NewBudgetedModelStore(dir, word.SnapshotBytes+slides.SnapshotBytes-1)
	if _, err := store.Build("word", func() *dmi.App { return dmi.NewWord("a").App }, dmi.ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Build("slides", func() *dmi.App { return dmi.NewPowerPoint(4).App }, dmi.ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Evictions < 1 || st.ResidentModels < 1 {
		t.Fatalf("tight budget should have evicted: %+v", st)
	}
	if st.ResidentBytes > store.Budget() {
		t.Fatalf("resident %d over budget %d", st.ResidentBytes, store.Budget())
	}
	// Re-access the evicted model: zero rip clicks — the snapshot file
	// survived eviction.
	back, err := store.Build("word", func() *dmi.App { return dmi.NewWord("a").App }, dmi.ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !back.FromSnapshot || back.RipStats.Clicks != 0 {
		t.Fatalf("evicted model should reload from snapshot rip-free: %+v", back)
	}
	if got := store.Stats(); got.SnapshotLoads < 1 {
		t.Fatalf("snapshot reload not counted: %+v", got)
	}
}

// TestDistributedServingSeam exercises the public dispatcher surface as a
// downstream coordinator would: enumerate the grid, implement a Dispatcher,
// run it, and get an aggregated report — no internal packages needed.
func TestDistributedServingSeam(t *testing.T) {
	cells := dmi.EvalGridCells(2)
	if len(cells) == 0 {
		t.Fatal("empty evaluation grid")
	}
	for _, cell := range cells {
		if cell.Runs != 2 || cell.Task == "" || cell.Setting == "" || cell.App == "" {
			t.Fatalf("malformed grid cell: %+v", cell)
		}
	}

	// A custom dispatcher that "solves" every run in one step — the report
	// must aggregate it in grid order through the public seam.
	rep, err := dmi.RunDistributed(context.Background(), succeedAll{}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 2 || len(rep.Rows) == 0 {
		t.Fatalf("report out of shape: runs=%d rows=%d", rep.Runs, len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.SR != 1 {
			t.Fatalf("row %q SR = %v, want 1 from the all-success dispatcher", row.Setting.Label, row.SR)
		}
	}

	if _, err := dmi.NewRemoteDispatcher(nil, dmi.RemoteOptions{}); err == nil {
		t.Fatal("empty replica list must be rejected")
	}
	if _, err := dmi.NewRemoteDispatcher([]string{"http://replica-a:8480"}, dmi.RemoteOptions{}); err != nil {
		t.Fatalf("valid replica list rejected: %v", err)
	}
}

// succeedAll is a trivial public Dispatcher implementation.
type succeedAll struct{}

func (succeedAll) Dispatch(ctx context.Context, cell dmi.GridCell) ([]dmi.AgentOutcome, error) {
	out := make([]dmi.AgentOutcome, cell.Runs)
	for i := range out {
		out[i] = dmi.AgentOutcome{Task: cell.Task, Success: true, Steps: 4, CoreSteps: 1, OneShot: true}
	}
	return out, nil
}
