// Package osworld defines the evaluation benchmark: 39 single-application
// tasks over the simulated Word, Excel, and PowerPoint — the shape of the
// OSWorld-W (Windows) subset the paper evaluates (§5.1) — plus the Settings
// and Files applications of the extended catalog, which stress category
// trees, confirm dialogs, list selection state, and scroll viewports. Every
// task runs on an application instance that is fresh or reset to be
// indistinguishable from fresh (pool.go), carries a ground-truth semantic
// plan annotated with difficulty and failure-trap metadata, and verifies
// success against real application state after the agent runs.
package osworld

import (
	"repro/internal/appkit"
	"repro/internal/uia"
)

// StepKind classifies ground-truth plan steps.
type StepKind int

// Plan step kinds.
const (
	StepAccess   StepKind = iota // navigate to a functional control and click
	StepInput                    // access an edit control and type
	StepShortcut                 // press a key combination
	StepState                    // drive a control to a target state (composite in GUI)
	StepObserve                  // retrieve information (answer tasks)
)

// Target names a functional control in interface-agnostic terms; the agent
// resolves it against the offline model (DMI) or the live UI (GUI).
type Target struct {
	// Primary is the control's primary identifier (automation id, or name
	// for unnamed-id controls).
	Primary string
	// GIDContains optionally disambiguates by requiring this substring in
	// the synthesized control id (e.g. the containing pane's id).
	GIDContains string
	// Via selects the entry path for shared-subtree targets: the primary
	// id of the opener whose semantics the task needs (Font Color vs
	// Underline Color).
	Via string
}

// StateOp describes a state or observation declaration target.
type StateOp struct {
	Op          string // a state op of core's declaration table (core.OpScrollbar, ...)
	ControlName string
	ControlType uia.ControlType
	H, V        float64  // scrollbar percentages (uia.NoScroll to skip an axis)
	Start, End  int      // selection ranges (1-based)
	Names       []string // select_controls targets, by on-screen name
	On          bool     // set_toggle_state: on; set_expanded: expanded
	Value       float64  // set_range_value
}

// PlanStep is one semantic step of the ground-truth plan.
type PlanStep struct {
	Kind   StepKind
	Target Target
	Text   string // StepInput
	Key    string // StepShortcut
	State  *StateOp

	// Ambiguity raises the semantic-error probability for this decision;
	// VisualDiff raises the grounding-error probability of imperative
	// execution.
	Ambiguity  float64
	VisualDiff float64

	// Trap models a specific plausible misinterpretation (the paper's
	// failure taxonomy): when it fires, the agent picks TrapAlt instead
	// of Target (or skips the step if TrapAlt is nil) and tags the
	// failure with TrapKind.
	TrapKind   string  // "control-semantics", "subtle-semantics", "ambiguous-task"
	TrapWeight float64 // multiplier on the profile's ControlSem channel
	TrapAlt    *Target
}

// Env is a live task environment: an application instance (fresh from
// Build, or pooled and reset by Checkout), the probe that resolves
// verify-condition paths against its state, and the bound verify condition.
type Env struct {
	App  *appkit.App
	Kind string // "Word", "Excel", "PowerPoint", "Settings", "Files"

	// Answer records the agent's reply for observation tasks.
	Answer string

	// Expected is the ground-truth answer for observation tasks ("" for
	// action tasks).
	Expected string

	// probe resolves condition paths against the live application state.
	probe StateProbe

	// verify is the task's declarative success condition.
	verify Cond

	// reset puts the application's document model where a fresh build
	// with the given setup would (pool.go).
	reset func(setup []SetupOp) error
	// undo and desk are a pooled instance's undo log and the desktop state
	// it returns to; undo is nil for an environment built outside the pool.
	undo *uia.UndoLog
	desk uia.DeskState
}

// Verify reports task success from application state (and the recorded
// answer, for observation tasks). A condition that fails to evaluate —
// possible only for tasks that bypassed validation — reads as failure.
func (e *Env) Verify() bool {
	ok, err := e.verify.Eval(e)
	return err == nil && ok
}

// Probe reads the application state at a verify-condition path.
func (e *Env) Probe(path string) (any, error) { return e.probe(path) }

// Task is one benchmark scenario — pure data. The environment it runs in is
// derived by Build from the app's compiled-in factory, the declarative
// Setup ops, and the Verify condition, which is what lets a task cross
// process boundaries as JSON (internal/taskpack) with no loss.
type Task struct {
	ID          string
	App         string
	Description string
	// Ambiguity is task-level instruction vagueness; it scales the
	// "ambiguous task description" failure channel.
	Ambiguity float64
	// Expected is the ground-truth answer for observation tasks.
	Expected string
	// Setup declares the environment deltas applied to a fresh application.
	Setup []SetupOp
	// Verify is the declarative success condition over application state.
	Verify Cond
	Plan   []PlanStep
}

// Failure channel tags (paper §5.6). Policy-level channels reflect
// semantic planning; mechanism-level channels reflect navigation and
// interaction.
const (
	FailAmbiguousTask = "ambiguous-task"
	FailControlSem    = "control-semantics"
	FailSubtleSem     = "subtle-semantics"
	FailVisualSem     = "visual-semantic"
	FailTopology      = "topology-inaccuracy"
	FailGroundingNav  = "grounding-navigation"
	FailComposite     = "composite-interaction"
	FailStepCap       = "step-cap"
	FailExecution     = "execution"
)

// PolicyLevel reports whether a failure channel is policy-level (semantic
// planning) as opposed to mechanism-level (navigation/interaction); the
// split of Figure 6.
func PolicyLevel(channel string) bool {
	switch channel {
	case FailAmbiguousTask, FailControlSem, FailSubtleSem:
		return true
	}
	return false
}
