package taskpack

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/osworld"
)

// Issue is one validation finding, located to a 1-based line in the pack
// bytes when the offending task can be found in them.
type Issue struct {
	Line int    // 0 when no position is known
	Task string // task id, "" for pack-level issues
	Msg  string
}

func (i Issue) String() string {
	s := ""
	if i.Line > 0 {
		s = fmt.Sprintf("line %d: ", i.Line)
	}
	if i.Task != "" {
		s += fmt.Sprintf("task %s: ", i.Task)
	}
	return s + i.Msg
}

// knownTrapKinds are the policy-level failure channels a plan step may tag;
// "" is a weightless trap that only redirects the target.
var knownTrapKinds = map[string]bool{
	"":                        true,
	osworld.FailAmbiguousTask: true,
	osworld.FailControlSem:    true,
	osworld.FailSubtleSem:     true,
}

// Validate decodes and fully validates pack bytes, returning every finding
// rather than stopping at the first. An empty result means the pack is
// loadable and every task builds and verifies against a real environment.
func Validate(data []byte) []Issue {
	p, err := Decode(data)
	if err != nil {
		// Decode errors already carry line:column in their message.
		return []Issue{{Msg: err.Error()}}
	}
	return ValidatePack(data, p)
}

// ValidatePack runs the semantic checks on an already-decoded pack: pack
// header sanity, unique non-empty ids, known applications, well-formed plan
// steps and traps, and — by building each task's environment once — setup
// ops the application interprets and verify conditions whose ops and state
// paths resolve. data is used only to locate findings by line; pass nil when
// the source bytes are unavailable.
func ValidatePack(data []byte, p *Pack) []Issue {
	var issues []Issue
	packIssue := func(msg string, args ...any) {
		issues = append(issues, Issue{Msg: fmt.Sprintf(msg, args...)})
	}
	if p.Name == "" {
		packIssue("pack has no name")
	}
	if len(p.Tasks) == 0 {
		packIssue("pack has no tasks")
	}

	apps := make(map[string]bool)
	for _, a := range osworld.Apps() {
		apps[a] = true
	}

	seen := make(map[string]bool)
	for i, pt := range p.Tasks {
		id := pt.ID
		taskIssue := func(msg string, args ...any) {
			issues = append(issues, Issue{Line: taskLine(data, id), Task: id, Msg: fmt.Sprintf(msg, args...)})
		}
		if id == "" {
			packIssue("task #%d has no id", i+1)
			continue
		}
		if seen[id] {
			taskIssue("duplicate task id")
			continue
		}
		seen[id] = true

		if !apps[pt.App] {
			taskIssue("unknown application %q (have %v)", pt.App, osworld.Apps())
			continue
		}
		if pt.Description == "" {
			taskIssue("task has no description")
		}
		if len(pt.Plan) == 0 {
			taskIssue("task has no plan steps")
		}
		for si, ps := range pt.Plan {
			for _, msg := range stepIssues(ps) {
				taskIssue("plan step %d: %s", si+1, msg)
			}
		}

		t, err := toTask(pt)
		if err != nil {
			taskIssue("%v", err)
			continue
		}
		// Check builds a fresh environment and evaluates the verify
		// condition once: it rejects setup ops the application does not
		// interpret, unknown condition ops, and state paths outside the
		// application's probe vocabulary.
		if err := t.Check(); err != nil {
			taskIssue("%v", err)
		}
	}
	return issues
}

// stepIssues reports the structural problems of one wire-form plan step.
func stepIssues(ps PackStep) []string {
	var msgs []string
	kind, ok := stepKindFromName(ps.Kind)
	if !ok {
		return []string{fmt.Sprintf("unknown step kind %q", ps.Kind)}
	}
	switch kind {
	case osworld.StepAccess, osworld.StepInput, osworld.StepObserve:
		if ps.Target == nil || ps.Target.Primary == "" {
			msgs = append(msgs, fmt.Sprintf("%s step needs a target with a primary id", ps.Kind))
		}
	case osworld.StepShortcut:
		if ps.Key == "" {
			msgs = append(msgs, "shortcut step needs a key")
		}
	case osworld.StepState:
		if ps.State == nil {
			msgs = append(msgs, "state step needs a state op")
		} else if !core.IsStateOp(ps.State.Op) {
			msgs = append(msgs, fmt.Sprintf("unknown state op %q", ps.State.Op))
		}
	}
	if ps.Trap != nil && !knownTrapKinds[ps.Trap.Kind] {
		msgs = append(msgs, fmt.Sprintf("unknown trap kind %q", ps.Trap.Kind))
	}
	return msgs
}

// taskLine locates a task in the pack bytes by its quoted id and returns the
// 1-based line it appears on, or 0 when the bytes are unavailable or the id
// cannot be found (e.g. it contains escapes).
func taskLine(data []byte, id string) int {
	if len(data) == 0 || id == "" {
		return 0
	}
	i := bytes.Index(data, []byte(`"`+id+`"`))
	if i < 0 {
		return 0
	}
	line, _ := lineCol(data, int64(i))
	return line
}
