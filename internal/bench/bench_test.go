package bench

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/agent"
	"repro/internal/llm"
	"repro/internal/modelstore"
	"repro/internal/osworld"
	"repro/internal/taskpack"
)

var (
	catalogOnce sync.Once
	catalog     *agent.Models
	catalogErr  error

	repOnce   sync.Once
	repReport *Report
)

// sharedModels builds the catalog once, in the package's own store, and
// shares it across the tests.
func sharedModels(t *testing.T) *agent.Models {
	t.Helper()
	catalogOnce.Do(func() { catalog, catalogErr = agent.BuildModelsIn(modelstore.New(), 0) })
	if catalogErr != nil {
		t.Fatal(catalogErr)
	}
	return catalog
}

// sharedReport runs the full matrix once (≈ seconds) and shares it across
// the shape tests.
func sharedReport(t *testing.T) (*agent.Models, *Report) {
	t.Helper()
	m := sharedModels(t)
	repOnce.Do(func() { repReport = Run(m, 3) })
	return m, repReport
}

// TestTable3Shape asserts the paper's qualitative results (§5.3): DMI beats
// the GUI baseline on success rate and steps in every model setting, and
// reasoning/model strength orders success.
func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	_, rep := sharedReport(t)
	type pair struct{ model, reasoning string }
	for _, p := range []pair{{"GPT-5", "Medium"}, {"GPT-5", "Minimal"}, {"GPT-5-mini", "Medium"}} {
		gui, ok1 := rep.RowFor(agent.GUIOnly, p.model, p.reasoning)
		dmi, ok2 := rep.RowFor(agent.GUIDMI, p.model, p.reasoning)
		if !ok1 || !ok2 {
			t.Fatalf("missing rows for %+v", p)
		}
		if dmi.SR <= gui.SR {
			t.Errorf("%v: DMI SR %.3f ≤ GUI SR %.3f", p, dmi.SR, gui.SR)
		}
		if dmi.Steps >= gui.Steps {
			t.Errorf("%v: DMI steps %.2f ≥ GUI steps %.2f", p, dmi.Steps, gui.Steps)
		}
		if dmi.TimeS >= gui.TimeS {
			t.Errorf("%v: DMI time %.0f ≥ GUI time %.0f", p, dmi.TimeS, gui.TimeS)
		}
	}

	// Relative improvement in the core setting: paper reports 1.67×; the
	// reproduction should land in the same regime (>1.3×).
	gui, _ := rep.RowFor(agent.GUIOnly, "GPT-5", "Medium")
	dmi, _ := rep.RowFor(agent.GUIDMI, "GPT-5", "Medium")
	if ratio := dmi.SR / gui.SR; ratio < 1.3 {
		t.Errorf("core-setting SR improvement = %.2f×, want ≥ 1.3× (paper 1.67×)", ratio)
	}
	if cut := 1 - dmi.Steps/gui.Steps; cut < 0.2 {
		t.Errorf("step reduction = %.0f%%, want ≥ 20%% (paper 43.5%%)", 100*cut)
	}

	// Reasoning effort orders success for the same interface.
	med, _ := rep.RowFor(agent.GUIOnly, "GPT-5", "Medium")
	min, _ := rep.RowFor(agent.GUIOnly, "GPT-5", "Minimal")
	if med.SR <= min.SR {
		t.Errorf("medium reasoning (%.3f) should beat minimal (%.3f)", med.SR, min.SR)
	}
}

// TestAblationShape asserts §5.5: the navigation forest alone does not
// significantly help the strong model but helps the weak one; the full DMI
// interface dominates both.
func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	_, rep := sharedReport(t)

	guiM, _ := rep.RowFor(agent.GUIOnly, "GPT-5", "Medium")
	ablM, _ := rep.RowFor(agent.GUIForest, "GPT-5", "Medium")
	dmiM, _ := rep.RowFor(agent.GUIDMI, "GPT-5", "Medium")
	if diff := ablM.SR - guiM.SR; diff > 0.12 || diff < -0.12 {
		t.Errorf("forest knowledge changed strong-model SR by %.3f; paper: no significant change", diff)
	}
	if dmiM.SR <= ablM.SR {
		t.Error("full DMI must beat the knowledge-only ablation (interface, not knowledge, drives gains)")
	}

	guiS, _ := rep.RowFor(agent.GUIOnly, "GPT-5-mini", "Medium")
	ablS, _ := rep.RowFor(agent.GUIForest, "GPT-5-mini", "Medium")
	dmiS, _ := rep.RowFor(agent.GUIDMI, "GPT-5-mini", "Medium")
	if ablS.SR < guiS.SR {
		t.Errorf("forest knowledge should not hurt the weak model (%.3f vs %.3f)", ablS.SR, guiS.SR)
	}
	if dmiS.SR <= ablS.SR {
		t.Error("full DMI must beat the ablation for the weak model too")
	}
}

// TestFig6Shape asserts the failure redistribution: with DMI most failures
// are policy-level; with GUI-only the mechanism share is much larger.
func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	_, rep := sharedReport(t)
	dmiRow, _ := rep.RowFor(agent.GUIDMI, "GPT-5", "Medium")
	guiRow, _ := rep.RowFor(agent.GUIOnly, "GPT-5", "Medium")
	dmi := Failures(dmiRow)
	gui := Failures(guiRow)
	if dmi.Total == 0 || gui.Total == 0 {
		t.Fatal("no failures recorded")
	}
	dmiPolicy := float64(dmi.Policy) / float64(dmi.Total)
	guiPolicy := float64(gui.Policy) / float64(gui.Total)
	if dmiPolicy < 0.65 {
		t.Errorf("DMI policy share = %.2f, want ≥ 0.65 (paper 0.81)", dmiPolicy)
	}
	if guiMech := 1 - guiPolicy; guiMech < 0.40 {
		t.Errorf("GUI mechanism share = %.2f, want ≥ 0.40 (paper 0.53)", guiMech)
	}
	if dmiPolicy <= guiPolicy {
		t.Error("DMI must shift failures toward policy level")
	}
}

// TestOneShotShape asserts §5.3: the majority of successful DMI trials
// complete the core intent in a single LLM call.
func TestOneShotShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	_, rep := sharedReport(t)
	dmi, _ := rep.RowFor(agent.GUIDMI, "GPT-5", "Medium")
	if dmi.OneShot < 0.5 {
		t.Errorf("one-shot fraction = %.2f, want ≥ 0.5 (paper > 0.61)", dmi.OneShot)
	}
	gui, _ := rep.RowFor(agent.GUIOnly, "GPT-5", "Medium")
	if gui.OneShot >= dmi.OneShot {
		t.Error("GUI baseline should not out-one-shot DMI")
	}
}

// TestNormalizedStepsShape asserts Figure 5b: on the intersection of tasks
// all methods solve, DMI needs the fewest core steps.
func TestNormalizedStepsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	_, rep := sharedReport(t)
	var rows []Row
	for _, iface := range []agent.Interface{agent.GUIOnly, agent.GUIForest, agent.GUIDMI} {
		row, ok := rep.RowFor(iface, "GPT-5", "Medium")
		if !ok {
			t.Fatal("row missing")
		}
		rows = append(rows, row)
	}
	norm := rep.NormalizedCoreSteps(rows)
	if norm[2] <= 0 {
		t.Fatal("empty intersection")
	}
	if norm[2] >= norm[0] || norm[2] >= norm[1] {
		t.Errorf("normalized core steps: GUI %.2f, ablation %.2f, DMI %.2f — DMI must be lowest",
			norm[0], norm[1], norm[2])
	}
}

// TestNormalizedCoreStepsEdges covers the Figure 5b computation at its
// boundaries with hand-built rows: no rows, one row, an empty solved-task
// intersection, and the majority-of-runs rule that decides what "solved"
// means in the first place.
func TestNormalizedCoreStepsEdges(t *testing.T) {
	rep := &Report{}
	mkRow := func(solved map[string]bool, outcomes ...agent.Outcome) Row {
		return Row{SolvedTasks: solved, Outcomes: outcomes}
	}
	win := func(task string, core int) agent.Outcome {
		return agent.Outcome{Task: task, Success: true, CoreSteps: core}
	}
	loss := func(task string) agent.Outcome {
		return agent.Outcome{Task: task}
	}

	t.Run("no rows", func(t *testing.T) {
		if norm := rep.NormalizedCoreSteps(nil); norm != nil {
			t.Fatalf("nil rows must yield nil, got %v", norm)
		}
	})
	t.Run("single row normalizes over its own solved set", func(t *testing.T) {
		row := mkRow(map[string]bool{"a": true, "b": true},
			win("a", 2), win("b", 4), win("c", 100), loss("a"))
		norm := rep.NormalizedCoreSteps([]Row{row})
		// Mean over the successful runs of solved tasks only: (2+4)/2. The
		// solved-but-failed run and the unsolved task c contribute nothing.
		if len(norm) != 1 || norm[0] != 3 {
			t.Fatalf("norm = %v, want [3]", norm)
		}
	})
	t.Run("empty intersection yields zeros, not NaN", func(t *testing.T) {
		rows := []Row{
			mkRow(map[string]bool{"a": true}, win("a", 2)),
			mkRow(map[string]bool{"b": true}, win("b", 7)),
		}
		norm := rep.NormalizedCoreSteps(rows)
		if len(norm) != 2 || norm[0] != 0 || norm[1] != 0 {
			t.Fatalf("disjoint solved sets must yield zeros, got %v", norm)
		}
	})
	t.Run("intersection drops tasks any row missed", func(t *testing.T) {
		rows := []Row{
			mkRow(map[string]bool{"a": true, "b": true}, win("a", 2), win("b", 10)),
			mkRow(map[string]bool{"a": true}, win("a", 6)),
		}
		norm := rep.NormalizedCoreSteps(rows)
		if len(norm) != 2 || norm[0] != 2 || norm[1] != 6 {
			t.Fatalf("norm = %v, want [2 6]", norm)
		}
	})
	t.Run("majority rule boundary", func(t *testing.T) {
		task := osworld.All()[0]
		set := Matrix()[0]
		for _, c := range []struct {
			runs, wins int
			solved     bool
		}{
			{2, 1, false}, // exactly half is not a majority
			{2, 2, true},
			{3, 2, true},
			{3, 1, false},
			{1, 1, true},
			{1, 0, false},
		} {
			outcomes := make([]agent.Outcome, 0, c.runs)
			for i := 0; i < c.runs; i++ {
				if i < c.wins {
					outcomes = append(outcomes, win(task.ID, 3))
				} else {
					outcomes = append(outcomes, loss(task.ID))
				}
			}
			row := aggregate(set, []osworld.Task{task}, c.runs, outcomes)
			if got := row.SolvedTasks[task.ID]; got != c.solved {
				t.Errorf("%d wins of %d runs: solved = %v, want %v", c.wins, c.runs, got, c.solved)
			}
		}
	})
}

// TestTokenClaim asserts §5.4: despite per-call topology overhead, total
// tokens per task with DMI stay at or below the baseline's.
func TestTokenClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	models, rep := sharedReport(t)
	gui, _ := rep.RowFor(agent.GUIOnly, "GPT-5", "Medium")
	dmi, _ := rep.RowFor(agent.GUIDMI, "GPT-5", "Medium")
	if dmi.Tokens > gui.Tokens*1.05 {
		t.Errorf("DMI tokens/task %.0f exceed baseline %.0f", dmi.Tokens, gui.Tokens)
	}
	// Per-control cost should sit in the ~15-token regime the paper
	// measures.
	for app, tok := range models.CoreTokens {
		if tok < 5000 || tok > 60000 {
			t.Errorf("%s core topology tokens = %d, implausible", app, tok)
		}
	}
}

// TestReportRendering smoke-tests every writer.
func TestReportRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	models, rep := sharedReport(t)
	var buf bytes.Buffer
	rep.WriteTable3(&buf)
	rep.WriteFig5(&buf)
	rep.WriteFig6(&buf)
	rep.WriteOneShot(&buf)
	rep.WriteTokens(&buf, models)
	out := buf.String()
	for _, want := range []string{"Table 3", "Figure 5a", "Figure 5b", "Figure 6",
		"One-shot", "Token overhead", "GUI+DMI"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestDeterministicReport: the whole evaluation is reproducible.
func TestDeterministicReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	models, rep := sharedReport(t)
	again := Run(models, 3)
	for i := range rep.Rows {
		if rep.Rows[i].SR != again.Rows[i].SR || rep.Rows[i].Steps != again.Rows[i].Steps {
			t.Fatalf("row %d not reproducible", i)
		}
	}
}

// renderAll renders every section of a report into one byte stream.
func renderAll(models *agent.Models, rep *Report) string {
	var buf bytes.Buffer
	rep.WriteTable3(&buf)
	rep.WriteFig5(&buf)
	rep.WriteFig6(&buf)
	rep.WriteOneShot(&buf)
	rep.WriteTokens(&buf, models)
	return buf.String()
}

// TestParallelReportEquivalence: the concurrent serving layer must be an
// implementation detail — RunDispatchedIn over a LocalDispatcher at a wide
// concurrency produces a Report whose every rendered byte matches the
// sequential run. Run under -race, this also proves the warm models are
// shared between concurrent sessions without unsynchronized mutation.
func TestParallelReportEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	models, rep := sharedReport(t)
	seq := renderAll(models, rep)
	for _, concurrency := range []int{4, 16} {
		par, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), NewLocalDispatcherIn(taskpack.Builtin(), models, 1), 3, concurrency)
		if err != nil {
			t.Fatalf("concurrency=%d: %v", concurrency, err)
		}
		if got := renderAll(models, par); got != seq {
			t.Fatalf("concurrency=%d: parallel report differs from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s",
				concurrency, got, seq)
		}
		// The structured outcomes must match cell-for-cell too, not just
		// the rendered aggregates.
		for i := range rep.Rows {
			if len(par.Rows[i].Outcomes) != len(rep.Rows[i].Outcomes) {
				t.Fatalf("concurrency=%d row %d: outcome count %d != %d",
					concurrency, i, len(par.Rows[i].Outcomes), len(rep.Rows[i].Outcomes))
			}
			for j, o := range rep.Rows[i].Outcomes {
				if par.Rows[i].Outcomes[j] != o {
					t.Fatalf("concurrency=%d row %d outcome %d: %+v != %+v",
						concurrency, i, j, par.Rows[i].Outcomes[j], o)
				}
			}
		}
	}
}

// TestRunSettingMatchesRun covers the single-setting entry point the
// focused benchmarks use: RunSetting's row equals the same setting's row of
// the full-matrix Run.
func TestRunSettingMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("single-cell evaluation")
	}
	models, rep := sharedReport(t)
	set := Setting{Label: "GUI+DMI / GPT-5 / Medium", Interface: agent.GUIDMI, Profile: llm.GPT5Medium}
	got := RunSetting(models, set, rep.Runs)
	want, ok := rep.RowFor(agent.GUIDMI, "GPT-5", "Medium")
	if !ok {
		t.Fatal("report lacks the GUI+DMI / GPT-5 / Medium row")
	}
	if got.SR != want.SR || got.Steps != want.Steps || got.Tokens != want.Tokens ||
		got.TimeS != want.TimeS || got.OneShot != want.OneShot || len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("single-setting row differs: %+v != %+v", got, want)
	}
	for j := range got.Outcomes {
		if got.Outcomes[j] != want.Outcomes[j] {
			t.Fatalf("outcome %d differs: %+v != %+v", j, got.Outcomes[j], want.Outcomes[j])
		}
	}
}

// TestRunCellMatchesRun pins the serving-daemon contract: for every
// (setting, task) cell, RunCell returns exactly the slice of outcomes the
// full-matrix Run produced for that cell — same RNG streams, same order.
func TestRunCellMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	models, rep := sharedReport(t)
	tasks := rep.Tasks
	// Spot-check one task per app across two settings; the grid slicing is
	// uniform, so this covers the indexing and the RNG stream derivation.
	picked := map[string]int{}
	for i, task := range tasks {
		if _, ok := picked[task.App]; !ok {
			picked[task.App] = i
		}
	}
	for _, label := range []string{"GUI+DMI / GPT-5 / Medium", "GUI-only / 5-mini / Medium"} {
		set, ok := SettingByLabel(label)
		if !ok {
			t.Fatalf("SettingByLabel(%q) missed", label)
		}
		var row Row
		found := false
		for _, r := range rep.Rows {
			if r.Setting.Label == label {
				row, found = r, true
			}
		}
		if !found {
			t.Fatalf("report lacks row %q", label)
		}
		for app, ti := range picked {
			want := row.Outcomes[ti*rep.Runs : (ti+1)*rep.Runs]
			got := RunCell(models, set, tasks[ti], rep.Runs, 1)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d outcomes, want %d", label, app, len(got), len(want))
			}
			for r := range got {
				if got[r] != want[r] {
					t.Fatalf("%s/%s run %d: cell outcome %+v != Run's %+v", label, app, r, got[r], want[r])
				}
			}
		}
	}
	if _, ok := SettingByLabel("No Such Setting"); ok {
		t.Fatal("SettingByLabel invented a setting")
	}
}
