package main

import (
	"bytes"
	"strings"
	"testing"

	"os"
	"path/filepath"

	"repro/internal/agent"
	"repro/internal/llm"
	"repro/internal/modelstore"
	"repro/internal/osworld"
	"repro/internal/taskpack"
)

func TestListPrintsEveryTask(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-list"}, &out, &errb); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	got := out.String()
	for _, task := range osworld.All() {
		if !strings.Contains(got, task.ID) {
			t.Errorf("listing missing task %q", task.ID)
		}
	}
	for _, header := range []string{"id", "app", "plan steps", "ambiguity", "traps", "description"} {
		if !strings.Contains(got, header) {
			t.Errorf("listing missing header %q", header)
		}
	}
}

// TestExportRoundTrip pins the authoring loop: -export writes a pack that
// -validate accepts, -list resolves, and whose bytes are the canonical
// encoding of the built-in grid (what CI diffs against packs/osworld-w.json).
func TestExportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pack.json")
	var out, errb bytes.Buffer
	if err := run([]string{"-export", path}, &out, &errb); err != nil {
		t.Fatalf("run -export: %v", err)
	}
	if !strings.Contains(errb.String(), "wrote pack "+taskpack.BuiltinName) {
		t.Errorf("export progress line missing:\n%s", errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := taskpack.BuiltinPack()
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Error("-export bytes differ from the canonical built-in encoding")
	}

	// Stdout mode emits the same bytes.
	out.Reset()
	if err := run([]string{"-export", "-"}, &out, &errb); err != nil {
		t.Fatalf("run -export -: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Error("-export - bytes differ from the file export")
	}

	out.Reset()
	if err := run([]string{"-validate", path}, &out, &errb); err != nil {
		t.Fatalf("-validate rejected the exported pack: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), ": ok") {
		t.Errorf("validate success line missing:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-list", "-taskpack", path}, &out, &errb); err != nil {
		t.Fatalf("-list -taskpack: %v", err)
	}
	for _, task := range osworld.All() {
		if !strings.Contains(out.String(), task.ID) {
			t.Errorf("pack-backed listing missing task %q", task.ID)
		}
	}
}

// TestValidateReportsIssues drives -validate against a broken pack: every
// finding is printed with its line and the exit is an error naming the count.
func TestValidateReportsIssues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "broken.json")
	pack := `{
  "schema": 1,
  "name": "broken",
  "tasks": [
    {
      "id": "bad-app",
      "app": "Browser",
      "description": "d",
      "verify": {"op": "answer"},
      "plan": [{"kind": "shortcut", "key": "ENTER"}]
    },
    {
      "id": "bad-path",
      "app": "Word",
      "description": "d",
      "verify": {"op": "equals", "path": "no.such.path", "value": true},
      "plan": [{"kind": "shortcut", "key": "ENTER"}]
    }
  ]
}
`
	if err := os.WriteFile(path, []byte(pack), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	err := run([]string{"-validate", path}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "2 issues") {
		t.Fatalf("want 2-issue validation failure, got %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "task bad-app") || !strings.Contains(got, `"Browser"`) {
		t.Errorf("unknown-app finding missing:\n%s", got)
	}
	if !strings.Contains(got, "task bad-path") {
		t.Errorf("bad-path finding missing:\n%s", got)
	}
	if !strings.Contains(got, "line 6") || !strings.Contains(got, "line 13") {
		t.Errorf("findings are not line-precise:\n%s", got)
	}

	if err := run([]string{"-validate", filepath.Join(t.TempDir(), "absent.json")}, &out, &errb); err == nil {
		t.Error("validating a missing file should fail")
	}
}

// TestRunWithPackMatchesBuiltin pins pack-loaded execution to the compiled
// grid: the same task from an exported pack produces the identical verbose
// transcript (same seeds, same outcomes).
func TestRunWithPackMatchesBuiltin(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog modeling")
	}
	path := filepath.Join(t.TempDir(), "pack.json")
	var out, errb bytes.Buffer
	if err := run([]string{"-export", path}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	var builtin, packed bytes.Buffer
	if err := run([]string{"-run", "files-delete", "-runs", "2"}, &builtin, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-run", "files-delete", "-runs", "2", "-taskpack", path}, &packed, &errb); err != nil {
		t.Fatal(err)
	}
	if builtin.String() != packed.String() {
		t.Errorf("pack-loaded run diverges from builtin:\n--- builtin ---\n%s--- pack ---\n%s",
			builtin.String(), packed.String())
	}
}

func TestNoArgsIsAnError(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, &out, &errb); err == nil {
		t.Fatal("expected an error with neither -list nor -run")
	}
}

func TestUnknownTaskIsAnError(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-run", "no-such-task"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "no-such-task") {
		t.Fatalf("expected unknown-task error, got %v", err)
	}
}

func TestBadFlagIsAnError(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &out, &errb); err == nil {
		t.Fatal("expected a flag-parse error")
	}
}

func TestRunTaskVerbose(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog modeling")
	}
	var out, errb bytes.Buffer
	if err := run([]string{"-run", "files-delete", "-runs", "2"}, &out, &errb); err != nil {
		t.Fatalf("run -run files-delete: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"task files-delete (Files):",
		"config: GUI+DMI, GPT-5/Medium, 2 run(s)",
		"run 1:", "run 2:", "success rate:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(errb.String(), "modeling applications…") {
		t.Error("progress line missing from stderr")
	}
	// The verbose outcome lines must agree with a direct agent.Run with the
	// same seeds.
	task, _ := taskpack.Builtin().ByID("files-delete")
	cfg := agent.Config{Interface: agent.GUIDMI, Profile: llm.GPT5Medium}
	models, err := agent.ModelsFor(modelstore.New(), task.App, 0)
	if err != nil {
		t.Fatal(err)
	}
	direct := agent.Run(models, task, cfg, llm.Rand("dmi-tasks", task.ID, 0))
	wantStatus := "FAIL"
	if direct.Success {
		wantStatus = "ok"
	}
	if !strings.Contains(got, "run 1: "+wantStatus) {
		t.Errorf("run 1 status disagrees with direct execution (%v):\n%s", direct.Success, got)
	}
}

func TestHelpFlagIsNotAnError(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-h"}, &out, &errb); err != nil {
		t.Fatalf("-h should print usage and succeed, got %v", err)
	}
	if !strings.Contains(errb.String(), "Usage") {
		t.Errorf("usage text missing from stderr:\n%s", errb.String())
	}
}
