package taskpack

import (
	"fmt"

	"repro/internal/osworld"
	"repro/internal/uia"
)

// Step-kind wire names. The int values of osworld.StepKind are an internal
// iota; packs carry stable strings.
var stepKindNames = map[osworld.StepKind]string{
	osworld.StepAccess:   "access",
	osworld.StepInput:    "input",
	osworld.StepShortcut: "shortcut",
	osworld.StepState:    "state",
	osworld.StepObserve:  "observe",
}

func stepKindFromName(name string) (osworld.StepKind, bool) {
	for k, n := range stepKindNames {
		if n == name {
			return k, true
		}
	}
	return 0, false
}

// FromTasks renders tasks into wire form. It fails only on content the wire
// format cannot carry (an unnamed step kind or control type), which the
// compiled-in grid never produces.
func FromTasks(name, description string, tasks []osworld.Task) (*Pack, error) {
	p := &Pack{Schema: SchemaVersion, Name: name, Description: description}
	for _, t := range tasks {
		pt, err := fromTask(t)
		if err != nil {
			return nil, fmt.Errorf("task %s: %w", t.ID, err)
		}
		p.Tasks = append(p.Tasks, pt)
	}
	return p, nil
}

// ToTasks converts the pack back into runnable tasks. It inverts FromTasks
// exactly: export → load → export is byte-identical, and load(export(ts))
// is structurally equal to ts.
func (p *Pack) ToTasks() ([]osworld.Task, error) {
	var ts []osworld.Task
	for i, pt := range p.Tasks {
		t, err := toTask(pt)
		if err != nil {
			return nil, fmt.Errorf("task %s (#%d): %w", pt.ID, i+1, err)
		}
		ts = append(ts, t)
	}
	return ts, nil
}

func fromTask(t osworld.Task) (PackTask, error) {
	pt := PackTask{
		ID:          t.ID,
		App:         t.App,
		Description: t.Description,
		Ambiguity:   t.Ambiguity,
		Expected:    t.Expected,
		Verify:      fromCond(t.Verify),
	}
	for _, op := range t.Setup {
		pt.Setup = append(pt.Setup, PackSetup{
			Op: op.Op, Texts: op.Texts, Ref: op.Ref,
			Path: op.Path, Value: op.Value, Count: op.Count,
		})
	}
	for i, s := range t.Plan {
		ps, err := fromStep(s)
		if err != nil {
			return PackTask{}, fmt.Errorf("plan step %d: %w", i+1, err)
		}
		pt.Plan = append(pt.Plan, ps)
	}
	return pt, nil
}

func toTask(pt PackTask) (osworld.Task, error) {
	t := osworld.Task{
		ID:          pt.ID,
		App:         pt.App,
		Description: pt.Description,
		Ambiguity:   pt.Ambiguity,
		Expected:    pt.Expected,
		Verify:      toCond(pt.Verify),
	}
	for _, op := range pt.Setup {
		t.Setup = append(t.Setup, osworld.SetupOp{
			Op: op.Op, Texts: op.Texts, Ref: op.Ref,
			Path: op.Path, Value: op.Value, Count: op.Count,
		})
	}
	for i, ps := range pt.Plan {
		s, err := toStep(ps)
		if err != nil {
			return osworld.Task{}, fmt.Errorf("plan step %d: %w", i+1, err)
		}
		t.Plan = append(t.Plan, s)
	}
	return t, nil
}

func fromCond(c osworld.Cond) PackCond {
	pc := PackCond{Op: c.Op, Path: c.Path, Value: c.Value}
	for _, s := range c.Subs {
		pc.Subs = append(pc.Subs, fromCond(s))
	}
	return pc
}

func toCond(pc PackCond) osworld.Cond {
	c := osworld.Cond{Op: pc.Op, Path: pc.Path, Value: pc.Value}
	for _, s := range pc.Subs {
		c.Subs = append(c.Subs, toCond(s))
	}
	return c
}

func fromStep(s osworld.PlanStep) (PackStep, error) {
	kind, ok := stepKindNames[s.Kind]
	if !ok {
		return PackStep{}, fmt.Errorf("step kind %d has no wire name", s.Kind)
	}
	ps := PackStep{
		Kind:       kind,
		Text:       s.Text,
		Key:        s.Key,
		Ambiguity:  s.Ambiguity,
		VisualDiff: s.VisualDiff,
	}
	if s.Target != (osworld.Target{}) {
		ps.Target = fromTarget(s.Target)
	}
	if s.State != nil {
		st, err := fromState(*s.State)
		if err != nil {
			return PackStep{}, err
		}
		ps.State = st
	}
	if s.TrapKind != "" || s.TrapWeight != 0 || s.TrapAlt != nil {
		trap := &PackTrap{Kind: s.TrapKind, Weight: s.TrapWeight}
		if s.TrapAlt != nil {
			trap.Alt = fromTarget(*s.TrapAlt)
		}
		ps.Trap = trap
	}
	return ps, nil
}

func toStep(ps PackStep) (osworld.PlanStep, error) {
	kind, ok := stepKindFromName(ps.Kind)
	if !ok {
		return osworld.PlanStep{}, fmt.Errorf("unknown step kind %q", ps.Kind)
	}
	s := osworld.PlanStep{
		Kind:       kind,
		Text:       ps.Text,
		Key:        ps.Key,
		Ambiguity:  ps.Ambiguity,
		VisualDiff: ps.VisualDiff,
	}
	if ps.Target != nil {
		s.Target = toTarget(*ps.Target)
	}
	if ps.State != nil {
		st, err := toState(*ps.State)
		if err != nil {
			return osworld.PlanStep{}, err
		}
		s.State = &st
	}
	if ps.Trap != nil {
		s.TrapKind = ps.Trap.Kind
		s.TrapWeight = ps.Trap.Weight
		if ps.Trap.Alt != nil {
			alt := toTarget(*ps.Trap.Alt)
			s.TrapAlt = &alt
		}
	}
	return s, nil
}

func fromTarget(t osworld.Target) *PackTarget {
	return &PackTarget{Primary: t.Primary, GIDContains: t.GIDContains, Via: t.Via}
}

func toTarget(pt PackTarget) osworld.Target {
	return osworld.Target{Primary: pt.Primary, GIDContains: pt.GIDContains, Via: pt.Via}
}

func fromState(st osworld.StateOp) (*PackState, error) {
	name := st.ControlType.String()
	if _, ok := uia.ParseControlType(name); !ok {
		return nil, fmt.Errorf("control type %d has no wire name", st.ControlType)
	}
	return &PackState{
		Op: st.Op, Control: st.ControlName, ControlType: name,
		H: st.H, V: st.V, Start: st.Start, End: st.End,
		Names: st.Names, On: st.On, Value: st.Value,
	}, nil
}

func toState(ps PackState) (osworld.StateOp, error) {
	ct, ok := uia.ParseControlType(ps.ControlType)
	if !ok {
		return osworld.StateOp{}, fmt.Errorf("unknown control type %q", ps.ControlType)
	}
	return osworld.StateOp{
		Op: ps.Op, ControlName: ps.Control, ControlType: ct,
		H: ps.H, V: ps.V, Start: ps.Start, End: ps.End,
		Names: ps.Names, On: ps.On, Value: ps.Value,
	}, nil
}
