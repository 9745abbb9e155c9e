package osworld

import (
	"fmt"
	"strings"
)

// Verify-condition ops. A condition is a small declarative language over
// live application state: leaves probe state paths (control state, selection
// ranges, scroll positions) or compare the recorded answer against the
// ground truth; combinators compose them. The language replaces the old
// per-task `verify` closures so a task can cross a process boundary as data
// (internal/taskpack) and still verify against real application state.
const (
	CondAll      = "all"      // every sub-condition holds
	CondAny      = "any"      // at least one sub-condition holds
	CondNot      = "not"      // the single sub-condition does not hold
	CondEquals   = "equals"   // state at Path equals Value
	CondContains = "contains" // string state at Path contains Value
	CondAtLeast  = "at-least" // numeric state at Path is >= Value
	CondAnswer   = "answer"   // the trimmed recorded answer equals Expected
)

// Cond is one node of a verify condition. Value carries only JSON-scalar
// types (string, bool, float64) so a condition round-trips through a task
// pack unchanged; numeric state is compared as float64.
type Cond struct {
	Op    string
	Path  string // CondEquals, CondContains, CondAtLeast
	Value any    // string, bool, or float64
	Subs  []Cond // CondAll, CondAny, CondNot
}

// StateProbe resolves a verify-condition path against live application
// state. A path outside the application's vocabulary is an error (so a
// mistyped pack fails validation loudly); a valid path whose value does not
// exist yet (e.g. the last table of a document with no tables) resolves to
// nil, which satisfies no comparison.
type StateProbe func(path string) (any, error)

// Eval evaluates the condition against the environment. Unknown ops and
// unknown paths are errors, not false: Task.Check surfaces them at
// validation time, and Env.Verify treats them as failure.
func (c Cond) Eval(e *Env) (bool, error) {
	switch c.Op {
	case CondAll:
		for _, s := range c.Subs {
			ok, err := s.Eval(e)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	case CondAny:
		for _, s := range c.Subs {
			ok, err := s.Eval(e)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case CondNot:
		if len(c.Subs) != 1 {
			return false, fmt.Errorf("condition %q takes exactly one sub-condition, got %d", CondNot, len(c.Subs))
		}
		ok, err := c.Subs[0].Eval(e)
		return !ok && err == nil, err
	case CondAnswer:
		return strings.TrimSpace(e.Answer) == e.Expected, nil
	case CondEquals:
		v, err := e.probe(c.Path)
		if err != nil {
			return false, err
		}
		return scalarEquals(v, c.Value), nil
	case CondContains:
		v, err := e.probe(c.Path)
		if err != nil {
			return false, err
		}
		s, okS := v.(string)
		w, okW := c.Value.(string)
		if !okW {
			return false, fmt.Errorf("condition %q at %q needs a string value, got %T", CondContains, c.Path, c.Value)
		}
		return okS && strings.Contains(s, w), nil
	case CondAtLeast:
		v, err := e.probe(c.Path)
		if err != nil {
			return false, err
		}
		want, okW := asNumber(c.Value)
		if !okW {
			return false, fmt.Errorf("condition %q at %q needs a numeric value, got %T", CondAtLeast, c.Path, c.Value)
		}
		got, okG := asNumber(v)
		return okG && got >= want, nil
	default:
		return false, fmt.Errorf("unknown condition op %q", c.Op)
	}
}

// Walk visits the condition tree depth-first, the node before its subs.
//
//dmi:testonly agent's reset property collects every verify path with it
func (c Cond) Walk(fn func(Cond)) {
	fn(c)
	for _, s := range c.Subs {
		s.Walk(fn)
	}
}

// scalarEquals compares a probed state value against a condition value:
// strings and bools by identity, numbers numerically (probes may yield ints,
// packs always carry float64). A nil probe value (valid path, absent state)
// equals nothing.
func scalarEquals(got, want any) bool {
	if g, ok := asNumber(got); ok {
		w, ok := asNumber(want)
		return ok && g == w
	}
	switch g := got.(type) {
	case string:
		w, ok := want.(string)
		return ok && g == w
	case bool:
		w, ok := want.(bool)
		return ok && g == w
	}
	return false
}

func asNumber(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int:
		return float64(n), true
	}
	return 0, false
}

// Condition constructors, used by the compiled-in grid and by taskpack
// conversion alike.

// AllOf requires every sub-condition.
func AllOf(subs ...Cond) Cond { return Cond{Op: CondAll, Subs: subs} }

// Not inverts a condition.
func Not(sub Cond) Cond { return Cond{Op: CondNot, Subs: []Cond{sub}} }

// Eq requires state at path to equal v (string, bool, or float64).
func Eq(path string, v any) Cond { return Cond{Op: CondEquals, Path: path, Value: v} }

// AtLeast requires numeric state at path to be >= n.
func AtLeast(path string, n float64) Cond { return Cond{Op: CondAtLeast, Path: path, Value: n} }

// AnswerIsExpected requires the trimmed recorded answer to equal the task's
// expected ground truth.
func AnswerIsExpected() Cond { return Cond{Op: CondAnswer} }
