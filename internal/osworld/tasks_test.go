package osworld

import "testing"

func TestBenchmarkShape(t *testing.T) {
	tasks := All()
	if len(tasks) != 39 {
		t.Fatalf("benchmark has %d tasks, want 39 (27 OSWorld-W + 12 catalog)", len(tasks))
	}
	perApp := map[string]int{}
	seen := map[string]bool{}
	for _, task := range tasks {
		if seen[task.ID] {
			t.Errorf("duplicate task id %q", task.ID)
		}
		seen[task.ID] = true
		perApp[task.App]++
		if task.Description == "" || len(task.Plan) == 0 {
			t.Errorf("task %q incomplete", task.ID)
		}
	}
	want := map[string]int{
		"Word": 9, "Excel": 9, "PowerPoint": 9, "Settings": 6, "Files": 6,
	}
	if len(perApp) != len(want) {
		t.Errorf("benchmark spans %d apps, want %d", len(perApp), len(want))
	}
	for app, n := range want {
		if perApp[app] != n {
			t.Errorf("%s has %d tasks, want %d", app, perApp[app], n)
		}
	}
}

// TestByIDCoversAllExactlyOnce: every listed task resolves through ByID to
// itself, exactly once (id collisions would silently shadow tasks).
func TestByIDCoversAllExactlyOnce(t *testing.T) {
	counts := map[string]int{}
	for _, task := range All() {
		counts[task.ID]++
		got, ok := ByID(task.ID)
		if !ok {
			t.Errorf("ByID(%q) not found", task.ID)
			continue
		}
		if got.ID != task.ID || got.App != task.App || got.Description != task.Description {
			t.Errorf("ByID(%q) returned a different task", task.ID)
		}
	}
	for id, n := range counts {
		if n != 1 {
			t.Errorf("task id %q appears %d times", id, n)
		}
	}
}

func TestTasksBuildFreshAndUnsolved(t *testing.T) {
	for _, task := range All() {
		task := task
		t.Run(task.ID, func(t *testing.T) {
			env := task.Build()
			if env.App == nil || env.Kind != task.App {
				t.Fatalf("env app wiring wrong: kind=%q", env.Kind)
			}
			if env.Verify() {
				t.Fatal("freshly built task already verifies (verifier too weak)")
			}
			// A second build is independent state.
			env2 := task.Build()
			if env2.App == env.App {
				t.Fatal("Build returned a shared application instance")
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("ppt-background"); !ok {
		t.Fatal("known id not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id found")
	}
}

func TestPolicyLevelClassification(t *testing.T) {
	policy := []string{FailAmbiguousTask, FailControlSem, FailSubtleSem}
	mechanism := []string{FailVisualSem, FailTopology, FailGroundingNav,
		FailComposite, FailStepCap, FailExecution}
	for _, c := range policy {
		if !PolicyLevel(c) {
			t.Errorf("%s should be policy-level", c)
		}
	}
	for _, c := range mechanism {
		if PolicyLevel(c) {
			t.Errorf("%s should be mechanism-level", c)
		}
	}
}

func TestObservationTaskAnswers(t *testing.T) {
	task, _ := ByID("excel-read-cell")
	env := task.Build()
	if env.Expected == "" {
		t.Fatal("observation task lacks expected answer")
	}
	env.Answer = env.Expected
	if !env.Verify() {
		t.Fatal("correct answer rejected")
	}
	env.Answer = "wrong"
	if env.Verify() {
		t.Fatal("wrong answer accepted")
	}
}

// ByID returns the task with the given id, or false.
func ByID(id string) (Task, bool) {
	for _, t := range All() {
		if t.ID == id {
			return t, true
		}
	}
	return Task{}, false
}
