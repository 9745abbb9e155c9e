package agent

import (
	"sync"
	"testing"

	"repro/internal/llm"
	"repro/internal/modelstore"
	"repro/internal/osworld"
	"repro/internal/taskpack"
)

var (
	modelsOnce sync.Once
	models     *Models
	modelsErr  error
)

func sharedModels(t testing.TB) *Models {
	t.Helper()
	modelsOnce.Do(func() { models, modelsErr = BuildModelsIn(modelstore.New(), 0) })
	if modelsErr != nil {
		t.Fatal(modelsErr)
	}
	return models
}

// TestAppNamesMatchFactories pins the one-source-of-truth contract: the
// ordered name list and the factory map must enumerate the same catalog,
// and every benchmark task must target a cataloged app.
func TestAppNamesMatchFactories(t *testing.T) {
	factories := Factories()
	names := AppNames()
	if len(names) != len(factories) {
		t.Fatalf("AppNames lists %d apps, Factories has %d", len(names), len(factories))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("AppNames lists %q twice", n)
		}
		seen[n] = true
		if _, ok := factories[n]; !ok {
			t.Errorf("AppNames lists %q but Factories has no builder for it", n)
		}
	}
	for _, task := range osworld.All() {
		if !seen[task.App] {
			t.Errorf("task %q targets uncataloged app %q", task.ID, task.App)
		}
	}
}

// oracle returns a profile with every error channel silenced: the planner
// reproduces the ground-truth plan perfectly.
func oracle() llm.Profile {
	p := llm.GPT5Medium
	p.Semantic, p.ControlSem, p.Grounding, p.Composite = 0, 0, 0, 0
	p.NavPlanning, p.InstrNoise = 0, 0
	p.Detect, p.Recover, p.KnowsApps = 1, 1, 1
	return p
}

// TestOracleSolvesEverythingViaDMI is the central integration check: the
// ground-truth plans, executed through the real DMI runtime against the
// real application simulators, must satisfy every task verifier.
func TestOracleSolvesEverythingViaDMI(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale integration")
	}
	m := sharedModels(t)
	cfg := Config{Interface: GUIDMI, Profile: oracle(), TopologyMissRate: -1}
	for _, task := range osworld.All() {
		task := task
		t.Run(task.ID, func(t *testing.T) {
			out := Run(m, task, cfg, llm.Rand("oracle-dmi", task.ID, 0))
			if !out.Success {
				t.Fatalf("oracle DMI failed: %+v", out)
			}
			if out.Steps < 4 {
				t.Errorf("steps = %d, below the fixed framework overhead", out.Steps)
			}
		})
	}
}

// TestOracleSolvesEverythingViaGUI checks the imperative path end to end.
func TestOracleSolvesEverythingViaGUI(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale integration")
	}
	m := sharedModels(t)
	cfg := Config{Interface: GUIOnly, Profile: oracle(), TopologyMissRate: -1}
	for _, task := range osworld.All() {
		task := task
		t.Run(task.ID, func(t *testing.T) {
			out := Run(m, task, cfg, llm.Rand("oracle-gui", task.ID, 0))
			// files-rename renames a live control mid-task. The DMI executor
			// absorbs the drift with its fuzzy matcher; the imperative
			// baseline grounds by exact appearance and loses the control
			// even with every error channel silent — the paper's §6
			// staleness story in miniature.
			if task.ID == "files-rename" {
				if out.Success {
					t.Fatal("exact grounding unexpectedly survived the live rename")
				}
				if out.Failure != osworld.FailGroundingNav {
					t.Fatalf("expected grounding failure, got %+v", out)
				}
				return
			}
			if !out.Success {
				t.Fatalf("oracle GUI failed: %+v", out)
			}
		})
	}
}

// TestDMIUsesFewerSteps: even for the oracle, the imperative interface
// needs more LLM calls than the declarative one (Insight: global planning).
func TestDMIUsesFewerSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale integration")
	}
	m := sharedModels(t)
	dmiCfg := Config{Interface: GUIDMI, Profile: oracle(), TopologyMissRate: -1}
	guiCfg := Config{Interface: GUIOnly, Profile: oracle(), TopologyMissRate: -1}
	var dmiSteps, guiSteps int
	for _, task := range osworld.All() {
		dmi := Run(m, task, dmiCfg, llm.Rand("steps-dmi", task.ID, 0))
		gui := Run(m, task, guiCfg, llm.Rand("steps-gui", task.ID, 0))
		dmiSteps += dmi.Steps
		guiSteps += gui.Steps
	}
	if dmiSteps >= guiSteps {
		t.Fatalf("DMI %d steps vs GUI %d steps: declarative should cut calls", dmiSteps, guiSteps)
	}
	t.Logf("oracle totals: DMI %d calls, GUI %d calls over %d tasks",
		dmiSteps, guiSteps, len(osworld.All()))
}

// TestRunDeterminism: same seed → identical outcome.
func TestRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale integration")
	}
	m := sharedModels(t)
	cfg := Config{Interface: GUIDMI, Profile: llm.GPT5Medium}
	task, _ := taskpack.Builtin().ByID("ppt-background")
	a := Run(m, task, cfg, llm.Rand("det", task.ID, 1))
	b := Run(m, task, cfg, llm.Rand("det", task.ID, 1))
	if a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestRunConcurrentSharedModels: Run is documented as safe for concurrent
// use over shared read-only Models — many sessions, one warm model. Under
// -race this enforces the read-only contract; functionally each concurrent
// run must still equal its sequential twin (same seed → same outcome).
func TestRunConcurrentSharedModels(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale integration")
	}
	m := sharedModels(t)
	tasks := osworld.All()
	cfgs := []Config{
		{Interface: GUIDMI, Profile: llm.GPT5Medium},
		{Interface: GUIOnly, Profile: llm.GPT5Medium},
		{Interface: GUIForest, Profile: llm.GPT5Mini},
	}
	type cell struct{ cfg, task, run int }
	var cells []cell
	for c := range cfgs {
		for ti := range tasks {
			for r := 0; r < 2; r++ {
				cells = append(cells, cell{c, ti, r})
			}
		}
	}
	seq := make([]Outcome, len(cells))
	for i, c := range cells {
		seq[i] = Run(m, tasks[c.task], cfgs[c.cfg], llm.Rand("conc", tasks[c.task].ID, c.run+10*c.cfg))
	}
	par := make([]Outcome, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c cell) {
			defer wg.Done()
			par[i] = Run(m, tasks[c.task], cfgs[c.cfg], llm.Rand("conc", tasks[c.task].ID, c.run+10*c.cfg))
		}(i, c)
	}
	wg.Wait()
	for i := range cells {
		if par[i] != seq[i] {
			t.Fatalf("cell %d: concurrent outcome %+v != sequential %+v", i, par[i], seq[i])
		}
	}
}

// TestModelsForMatchesBuildModels: the single-app view the serving daemon
// assembles per session, built in a store of its own, must carry exactly the
// token accounting the full catalog build computes, so sessions served
// through it are byte-identical to in-process ones.
func TestModelsForMatchesBuildModels(t *testing.T) {
	full := sharedModels(t)
	store := modelstore.New()
	for _, app := range AppNames() {
		one, err := ModelsFor(store, app, 2)
		if err != nil {
			t.Fatal(err)
		}
		if one.CoreTokens[app] != full.CoreTokens[app] {
			t.Fatalf("%s: token accounting diverged: one=%d full=%d", app,
				one.CoreTokens[app], full.CoreTokens[app])
		}
		if one.ByApp[app] == nil {
			t.Fatalf("%s: no model in single-app view", app)
		}
	}
	if _, err := ModelsFor(store, "NoSuchApp", 2); err == nil {
		t.Fatal("unknown application did not error")
	}
}
