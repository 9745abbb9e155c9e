package osworld

import (
	"errors"
	"strings"
	"testing"
)

// probeEnv builds an Env over a fixed path→value table; "boom" errors, any
// other unknown path errors like a real application probe would.
func probeEnv(state map[string]any) *Env {
	return &Env{probe: func(path string) (any, error) {
		if path == "boom" {
			return nil, errors.New("probe exploded")
		}
		v, ok := state[path]
		if !ok {
			return nil, errPath("Test", path)
		}
		return v, nil
	}}
}

// TestCondPrimitives drives every condition op through its true branch, its
// false branch, and (where one exists) its error branch — the contract every
// pack-authored verify condition evaluates under.
func TestCondPrimitives(t *testing.T) {
	env := probeEnv(map[string]any{
		"str":   "hello world",
		"num":   3.0,
		"int":   7,
		"on":    true,
		"off":   false,
		"empty": "",
		"nada":  nil,
	})
	env.Answer = "  42\n"
	env.Expected = "42"

	tests := []struct {
		name    string
		cond    Cond
		want    bool
		wantErr string // substring; "" = no error
	}{
		// equals
		{"equals string true", Eq("str", "hello world"), true, ""},
		{"equals string false", Eq("str", "goodbye"), false, ""},
		{"equals empty string true", Eq("empty", ""), true, ""},
		{"equals float true", Eq("num", 3.0), true, ""},
		{"equals float false", Eq("num", 4.0), false, ""},
		{"equals int probe vs float value", Eq("int", 7.0), true, ""},
		{"equals bool true", Eq("on", true), true, ""},
		{"equals bool false value", Eq("off", false), true, ""},
		{"equals bool mismatch", Eq("on", false), false, ""},
		{"equals type mismatch", Eq("str", 3.0), false, ""},
		{"equals nil probe matches nothing", Eq("nada", ""), false, ""},
		{"equals unknown path", Eq("no-such", "x"), false, "unknown Test state path"},
		{"equals probe error", Eq("boom", "x"), false, "probe exploded"},
		// contains
		{"contains true", ContainsStr("str", "lo wo"), true, ""},
		{"contains false", ContainsStr("str", "xyz"), false, ""},
		{"contains non-string state", ContainsStr("num", "3"), false, ""},
		{"contains nil state", ContainsStr("nada", "x"), false, ""},
		{"contains non-string value", Cond{Op: CondContains, Path: "str", Value: 3.0}, false, "needs a string value"},
		{"contains probe error", ContainsStr("boom", "x"), false, "probe exploded"},
		// at-least
		{"at-least greater", AtLeast("num", 2), true, ""},
		{"at-least equal", AtLeast("num", 3), true, ""},
		{"at-least below", AtLeast("num", 4), false, ""},
		{"at-least int probe", AtLeast("int", 7), true, ""},
		{"at-least non-numeric state", AtLeast("str", 1), false, ""},
		{"at-least nil state", AtLeast("nada", 1), false, ""},
		{"at-least non-numeric value", Cond{Op: CondAtLeast, Path: "num", Value: "two"}, false, "needs a numeric value"},
		{"at-least probe error", AtLeast("boom", 1), false, "probe exploded"},
		// answer
		{"answer trims and matches", AnswerIsExpected(), true, ""},
		// all
		{"all of none", AllOf(), true, ""},
		{"all true", AllOf(Eq("on", true), AtLeast("num", 1)), true, ""},
		{"all one false", AllOf(Eq("on", true), Eq("num", 0.0)), false, ""},
		{"all error propagates", AllOf(Eq("boom", "x"), Eq("on", true)), false, "probe exploded"},
		// any
		{"any of none", AnyOf(), false, ""},
		{"any true", AnyOf(Eq("num", 0.0), Eq("on", true)), true, ""},
		{"any all false", AnyOf(Eq("num", 0.0), Eq("off", true)), false, ""},
		{"any error propagates", AnyOf(Eq("boom", "x"), Eq("on", true)), false, "probe exploded"},
		// not
		{"not inverts false", Not(Eq("num", 0.0)), true, ""},
		{"not inverts true", Not(Eq("on", true)), false, ""},
		{"not zero subs", Cond{Op: CondNot}, false, "exactly one sub-condition"},
		{"not two subs", Cond{Op: CondNot, Subs: []Cond{AllOf(), AllOf()}}, false, "exactly one sub-condition"},
		{"not inner error", Not(Eq("boom", "x")), false, "probe exploded"},
		// unknown op
		{"unknown op", Cond{Op: "sometimes"}, false, "unknown condition op"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.cond.Eval(env)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Eval: %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Eval error %v, want substring %q", err, tc.wantErr)
			}
			if got != tc.want {
				t.Errorf("Eval = %v, want %v", got, tc.want)
			}
		})
	}

	env.Answer = "41"
	if ok, err := AnswerIsExpected().Eval(env); err != nil || ok {
		t.Errorf("wrong answer should not verify: %v, %v", ok, err)
	}
}

// TestVerifyTreatsEvalErrorAsFailure pins Env.Verify's posture: a condition
// that cannot evaluate reads as task failure, never as success or a panic.
func TestVerifyTreatsEvalErrorAsFailure(t *testing.T) {
	env := probeEnv(map[string]any{"on": true})
	env.verify = Eq("no-such-path", true)
	if env.Verify() {
		t.Error("unresolvable condition verified as success")
	}
	env.verify = Eq("on", true)
	if !env.Verify() {
		t.Error("satisfied condition did not verify")
	}
}

// TestWalkVisitsEveryNode pins the traversal order pack tooling relies on:
// depth-first, node before subs.
func TestWalkVisitsEveryNode(t *testing.T) {
	c := AllOf(Not(Eq("a", 1.0)), AnyOf(ContainsStr("b", "x"), AtLeast("c", 2)))
	var ops []string
	c.Walk(func(n Cond) { ops = append(ops, n.Op) })
	want := []string{CondAll, CondNot, CondEquals, CondAny, CondContains, CondAtLeast}
	if len(ops) != len(want) {
		t.Fatalf("visited %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("visited %v, want %v", ops, want)
		}
	}
}

// TestSetupOps covers each declarative setup op's happy path — the probe
// sees the seeded state — and every builder rejection an invalid pack can
// trigger.
func TestSetupOps(t *testing.T) {
	probe := func(t *testing.T, env *Env, err error, path string) any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		v, err := env.probe(path)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	t.Run("word paragraphs", func(t *testing.T) {
		env, err := wordEnv([]SetupOp{{Op: SetupWordParagraphs, Texts: []string{"alpha beta", "beta"}}})
		if got := probe(t, env, err, "occurrences.beta"); got != 2.0 {
			t.Errorf("occurrences.beta = %v, want 2", got)
		}
	})
	t.Run("word rejects foreign op", func(t *testing.T) {
		if _, err := wordEnv([]SetupOp{{Op: SetupSlidesDeck, Count: 3}}); err == nil {
			t.Error("foreign setup op accepted")
		}
	})

	t.Run("excel set cell", func(t *testing.T) {
		env, err := excelEnv([]SetupOp{{Op: SetupExcelSetCell, Ref: "C22", Value: "1379.25"}})
		if got := probe(t, env, err, "cell.C22.value"); got != "1379.25" {
			t.Errorf("cell.C22.value = %v", got)
		}
	})
	t.Run("excel rejects non-string value", func(t *testing.T) {
		_, err := excelEnv([]SetupOp{{Op: SetupExcelSetCell, Ref: "A1", Value: 5.0}})
		if err == nil || !strings.Contains(err.Error(), "must be a string") {
			t.Errorf("want string-value rejection, got %v", err)
		}
	})
	t.Run("excel rejects bad ref", func(t *testing.T) {
		_, err := excelEnv([]SetupOp{{Op: SetupExcelSetCell, Ref: "not-a-ref", Value: "x"}})
		if err == nil || !strings.Contains(err.Error(), "invalid cell ref") {
			t.Errorf("want invalid-ref rejection, got %v", err)
		}
	})
	t.Run("excel rejects foreign op", func(t *testing.T) {
		if _, err := excelEnv([]SetupOp{{Op: SetupSettingsSet, Path: "wifi", Value: true}}); err == nil {
			t.Error("foreign setup op accepted")
		}
	})

	t.Run("slides deck", func(t *testing.T) {
		env, err := slidesEnv([]SetupOp{{Op: SetupSlidesDeck, Count: 12}})
		if got := probe(t, env, err, "slide-count"); got != 12.0 {
			t.Errorf("slide-count = %v, want 12", got)
		}
	})
	t.Run("slides rejects absurd deck", func(t *testing.T) {
		for _, n := range []int{-1, maxDeckSlides + 1} {
			if _, err := slidesEnv([]SetupOp{{Op: SetupSlidesDeck, Count: n}}); err == nil {
				t.Errorf("deck size %d accepted", n)
			}
		}
	})
	t.Run("slides rejects foreign op", func(t *testing.T) {
		if _, err := slidesEnv([]SetupOp{{Op: SetupWordParagraphs}}); err == nil {
			t.Error("foreign setup op accepted")
		}
	})

	t.Run("settings set", func(t *testing.T) {
		env, err := settingsEnv([]SetupOp{
			{Op: SetupSettingsSet, Path: "vpn", Value: true},
			{Op: SetupSettingsSet, Path: "proxy-server", Value: "proxy.corp:8080"},
		})
		if got := probe(t, env, err, "state.vpn"); got != true {
			t.Errorf("state.vpn = %v", got)
		}
		if got := probe(t, env, err, "state.proxy-server"); got != "proxy.corp:8080" {
			t.Errorf("state.proxy-server = %v", got)
		}
	})
	t.Run("settings rejects unknown field", func(t *testing.T) {
		_, err := settingsEnv([]SetupOp{{Op: SetupSettingsSet, Path: "warp-drive", Value: true}})
		if err == nil || !strings.Contains(err.Error(), "unknown settings field") {
			t.Errorf("want unknown-field rejection, got %v", err)
		}
	})
	t.Run("settings rejects wrong value types", func(t *testing.T) {
		if _, err := settingsEnv([]SetupOp{{Op: SetupSettingsSet, Path: "wifi", Value: "on"}}); err == nil {
			t.Error("string for a bool field accepted")
		}
		if _, err := settingsEnv([]SetupOp{{Op: SetupSettingsSet, Path: "proxy-server", Value: true}}); err == nil {
			t.Error("bool for a string field accepted")
		}
	})
	t.Run("settings rejects foreign op", func(t *testing.T) {
		if _, err := settingsEnv([]SetupOp{{Op: SetupExcelSetCell, Ref: "A1", Value: "x"}}); err == nil {
			t.Error("foreign setup op accepted")
		}
	})

	t.Run("files rejects all setup", func(t *testing.T) {
		if _, err := filesEnv([]SetupOp{{Op: SetupSettingsSet, Path: "wifi", Value: true}}); err == nil {
			t.Error("Files accepted a setup op")
		}
	})
}

// TestBuildEnvAndCheck covers the task-level validation seams packs go
// through: unknown applications and unresolvable verify paths are loud
// errors, a well-formed task checks clean, and Build panics only on tasks
// that bypassed validation.
func TestBuildEnvAndCheck(t *testing.T) {
	if _, err := (Task{ID: "x", App: "Browser"}).BuildEnv(); err == nil {
		t.Error("unknown application accepted")
	}

	bad := Task{ID: "x", App: "Word", Verify: Eq("no.such.path", true)}
	if err := bad.Check(); err == nil || !strings.Contains(err.Error(), "verify") {
		t.Errorf("unresolvable verify path not surfaced: %v", err)
	}

	good := Task{ID: "x", App: "Word", Verify: Eq("saved", false)}
	if err := good.Check(); err != nil {
		t.Errorf("clean task failed Check: %v", err)
	}

	defer func() {
		if recover() == nil {
			t.Error("Build should panic on a task BuildEnv rejects")
		}
	}()
	bad2 := Task{ID: "x", App: "Excel", Setup: []SetupOp{{Op: SetupExcelSetCell, Ref: "bad", Value: "x"}}}
	bad2.Build()
}
