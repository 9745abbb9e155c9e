package agent

import (
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/osworld"
	"repro/internal/strutil"
	"repro/internal/uia"
)

// runGUI executes the task imperatively (the UFO2-as baseline, optionally
// with the navigation forest as prompt knowledge). Each LLM call plans an
// action sequence over controls visible at the start of that call; clicks
// that reveal new UI force the next round trip. Composite interactions run
// as observe–act loops. Returns true if the run aborted unrecoverably.
func (d *driver) runGUI() bool {
	hasForest := d.cfg.Interface == GUIForest
	navErr := d.p.EffectiveNavError(hasForest)

	for _, step := range d.task.Plan {
		switch step.Kind {
		case osworld.StepAccess, osworld.StepInput:
			it := d.intend(step, 1.35)
			if it.skip {
				d.fail(it.tag)
				continue
			}
			r, err := resolveTarget(d.model, it.target)
			if err != nil {
				d.fail(osworld.FailAmbiguousTask)
				continue
			}
			node := r.node
			if it.sibling {
				if sib := siblingDistractor(node, d.rng.Intn); sib != nil {
					node = sib
				}
			}
			if it.tag != "" {
				d.fail(it.tag)
			}
			if aborted := d.guiNavigateAndAct(node, r.refs, step, navErr); aborted {
				return true
			}

		case osworld.StepShortcut:
			it := d.intend(step, 1.35)
			if it.skip {
				d.fail(it.tag)
				continue
			}
			d.guiEnsureCall()
			_ = d.env.App.Desk.PressKey(step.Key)

		case osworld.StepState:
			if aborted := d.guiComposite(step); aborted {
				return true
			}

		case osworld.StepObserve:
			if d.overCap() {
				return true
			}
			d.call(d.guiPrompt(), true)
			d.guiObserve(step)
		}
	}
	d.flushGUICall()
	return false
}

// Call batching: actions execute inside an open call as long as their
// targets were visible when the call was planned; anything else opens a new
// call.
type guiCall struct {
	open    bool
	visible map[string]bool // control ids visible at plan time

	// snap is the driver's one snapshot buffer: no snapshot outlives the
	// call that takes it, so each reuses the last one's storage.
	snap []*uia.Element
}

func (d *driver) guiEnsureCall() {
	if d.gui.open {
		return
	}
	d.call(d.guiPrompt(), true)
	d.gui.open = true
	d.gui.snap = d.env.App.Desk.Snapshot(d.gui.snap)
	if d.gui.visible == nil {
		d.gui.visible = make(map[string]bool, len(d.gui.snap))
	}
	clear(d.gui.visible)
	for _, e := range d.gui.snap {
		if e.Parent() != nil {
			d.gui.visible[e.ControlID()] = true
		}
	}
}

func (d *driver) flushGUICall() { d.gui.open = false }

// guiNavigateAndAct walks the root-to-target chain imperatively: one wrong
// turn per navigation click with probability navErr, a grounding slip per
// click, detection and Esc-recovery on observation, cascade on undetected
// errors.
func (d *driver) guiNavigateAndAct(node *forest.Node, refs []int, step osworld.PlanStep, navErr float64) bool {
	chain := pathSteps(d, node, refs)
	if len(chain) == 0 {
		d.fail(osworld.FailTopology)
		return false
	}
	guard := 0
	for {
		if guard++; guard > len(chain)+14 {
			d.fail(osworld.FailGroundingNav)
			return true
		}
		if d.overCap() {
			return true
		}
		d.guiEnsureCall()
		idx, el := d.deepestVisibleLive(chain)
		if idx < 0 {
			// Nothing on the path visible (wrong window, lost state):
			// dismiss and retry once per guard round.
			d.flushGUICall()
			_ = d.env.App.Desk.PressKey("ESC")
			idx, el = d.deepestVisibleLive(chain)
			if idx < 0 {
				d.fail(osworld.FailGroundingNav)
				return true
			}
			continue
		}
		final := idx == len(chain)-1
		if !d.gui.visible[el.ControlID()] {
			// Target appeared after this call was planned: next round.
			d.flushGUICall()
			continue
		}

		// Error channels for this click.
		pErr := d.p.Grounding
		if final {
			pErr = d.p.Grounding * (1 + step.VisualDiff)
		} else {
			pErr += navErr
		}
		if d.chance(pErr) {
			// Wrong control activated: a navigation/localization slip.
			wrong := d.liveSibling(el)
			if wrong != nil {
				_ = d.env.App.Desk.Click(wrong)
			}
			if d.chance(d.p.Detect) {
				// Observed the mistake: recover with an extra round.
				d.recovered(osworld.FailGroundingNav)
				d.flushGUICall()
				if d.overCap() {
					return true
				}
				d.call(d.guiPrompt(), true)
				_ = d.env.App.Desk.PressKey("ESC")
				d.flushGUICall()
				continue
			}
			d.fail(osworld.FailGroundingNav)
			if final {
				// Believes the interaction happened; moves on.
				return false
			}
			return true // lost in navigation: cascade
		}

		if err := d.env.App.Desk.Click(el); err != nil {
			d.fail(osworld.FailGroundingNav)
			return true
		}
		if final {
			if step.Kind == osworld.StepInput {
				d.env.App.Desk.SetFocus(el)
				if err := d.env.App.Desk.TypeText(step.Text); err != nil {
					d.fail(osworld.FailExecution)
				}
			}
			return false
		}
	}
}

// guiComposite performs a state change as an iterative observe–act loop
// (drag rounds, selection adjustment): each round is one LLM call; each
// round can misjudge; undetected misses leave the state wrong.
func (d *driver) guiComposite(step osworld.PlanStep) bool {
	so := *step.State
	d.flushGUICall()
	pRound := d.p.Composite * (1 + step.VisualDiff)
	const maxRounds = 4
	for round := 1; ; round++ {
		if d.overCap() {
			return true
		}
		d.call(d.guiPrompt(), true)
		miss := d.chance(pRound)
		d.applyComposite(so, miss)
		if !miss {
			return false // reached the declared state
		}
		if round >= maxRounds || !d.chance(d.p.Detect) {
			d.fail(osworld.FailComposite)
			return false
		}
		d.recovered(osworld.FailComposite)
	}
}

// applyComposite mutates the UI toward the target state; a miss leaves it
// measurably off (an imprecise drag or selection).
func (d *driver) applyComposite(so osworld.StateOp, miss bool) {
	lm := d.sess.CaptureLabels()
	label := lm.Find(so.ControlName, so.ControlType)
	if label == "" {
		return
	}
	el := lm.Element(label)
	switch so.Op {
	case core.OpScrollbar:
		v := so.V
		if miss {
			v = clamp(v + float64(d.rng.Intn(56)-28))
		}
		if sc, ok := el.Pattern(uia.ScrollPattern).(uia.Scroller); ok {
			_ = sc.SetScrollPercent(el, so.H, v)
		}
	case core.OpSelectLines, core.OpSelectParagraphs:
		start, end := so.Start, so.End
		if miss {
			start += d.rng.Intn(3) - 1
			end += d.rng.Intn(3) - 1
			if start < 1 {
				start = 1
			}
			if end < start {
				end = start
			}
		}
		if tx, ok := el.Pattern(uia.TextPattern).(uia.Texter); ok {
			if so.Op == core.OpSelectLines {
				_ = tx.SelectLines(el, start, end)
			} else {
				_ = tx.SelectParagraphs(el, start, end)
			}
		}
	case core.OpSelectControls:
		for i, n := range so.Names {
			l := lm.Find(n, so.ControlType)
			if l == "" {
				continue
			}
			tgt := lm.Element(l)
			if si, ok := tgt.Pattern(uia.SelectionItemPattern).(uia.SelectionItem); ok {
				if i == 0 {
					_ = si.Select(tgt)
				} else {
					_ = si.AddToSelection(tgt)
				}
			}
		}
	case core.OpSetRangeValue:
		v := so.Value
		if miss {
			v *= 0.6 + 0.8*d.rng.Float64()
		}
		if rv, ok := el.Pattern(uia.RangeValuePattern).(uia.RangeValuer); ok {
			min, max := rv.Range(el)
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			_ = rv.SetRangeValue(el, v)
		}
	case core.OpSetToggleState:
		want := uia.ToggleOff
		if so.On != miss { // a miss lands in the other state
			want = uia.ToggleOn
		}
		if tg, ok := el.Pattern(uia.TogglePattern).(uia.Toggler); ok {
			_ = tg.SetToggleState(el, want)
		}
	case core.OpSetExpanded:
		if xc, ok := el.Pattern(uia.ExpandCollapsePattern).(uia.ExpandCollapser); ok {
			if so.On != miss { // a miss lands in the other state
				_ = xc.Expand(el)
			} else {
				_ = xc.Collapse(el)
			}
		}
	}
}

// guiObserve answers an observation step by reading pixels: limited visual
// acuity corrupts the answer with probability scaled by the step's visual
// difficulty (§2.1, Mismatch #2).
func (d *driver) guiObserve(step osworld.PlanStep) {
	lm := d.sess.CaptureLabels()
	name := trimCellPrefix(step.Target.Primary)
	label := lm.Find(name, uia.DataItemControl)
	if label == "" {
		d.fail(osworld.FailVisualSem)
		return
	}
	el := lm.Element(label)
	v, _ := el.Pattern(uia.ValuePattern).(uia.Valuer)
	if v == nil {
		d.fail(osworld.FailVisualSem)
		return
	}
	answer := v.Value(el)
	if d.chance(d.p.Grounding * (0.5 + step.VisualDiff)) {
		answer = corruptDigits(answer, d.rng.Intn)
		d.fail(osworld.FailVisualSem)
	}
	d.env.Answer = answer
}

// corruptDigits flips one digit — a typical visual misread of a numeric
// cell.
func corruptDigits(s string, pick func(int) int) string {
	b := []byte(s)
	var digits []int
	for i, c := range b {
		if c >= '0' && c <= '9' {
			digits = append(digits, i)
		}
	}
	if len(digits) == 0 {
		return s + "?"
	}
	i := digits[pick(len(digits))]
	b[i] = '0' + byte((int(b[i]-'0')+1+pick(8)))%10
	return string(b)
}

// deepestVisibleLive finds the deepest enabled chain element currently on
// screen by exact synthesized-id match across the desktop, first occurrence
// per id (core.FirstOnScreen).
func (d *driver) deepestVisibleLive(chain []*forest.Node) (int, *uia.Element) {
	var buf [16]*uia.Element
	d.gui.snap = d.env.App.Desk.Snapshot(d.gui.snap)
	first := core.FirstOnScreen(chain, d.gui.snap, buf[:0])
	for i := len(chain) - 1; i >= 0; i-- {
		if el := first[i]; el != nil && el.Enabled() {
			return i, el
		}
	}
	return -1, nil
}

// liveSibling returns a visually adjacent control — where a misgrounded
// click lands.
func (d *driver) liveSibling(el *uia.Element) *uia.Element {
	parent := el.Parent()
	if parent == nil {
		return nil
	}
	sibs := parent.Children()
	if len(sibs) < 2 {
		return el
	}
	for tries := 0; tries < 4; tries++ {
		s := sibs[d.rng.Intn(len(sibs))]
		if s != el && s.OnScreen() && s.Enabled() && s.Type().IsInteractive() {
			return s
		}
	}
	return el
}

// pathSteps expands a target (plus entry references) into the full click
// chain, mirroring the executor's path resolution.
func pathSteps(d *driver, node *forest.Node, refs []int) []*forest.Node {
	var steps []*forest.Node
	for _, refID := range refs {
		ref := d.model.Node(refID)
		if ref == nil {
			return nil
		}
		steps = append(steps, ref.PathFromRoot()[1:]...)
	}
	return append(steps, node.PathFromRoot()[1:]...)
}

// guiPrompt is the token cost of a GUI-mode call: instructions, the
// screenshot (the baseline perceives pixels; DMI does not need to), the
// labeled accessibility tree, and — in the ablation — the navigation forest
// as static knowledge.
func (d *driver) guiPrompt() int {
	const screenshotTokens = 2500
	lm := d.sess.CaptureLabels()
	tokens := 900 + screenshotTokens + lm.Len()*12 +
		strutil.EstimateTokens(d.task.Description)
	if d.cfg.Interface == GUIForest {
		tokens += d.models.CoreTokens[d.task.App]
	}
	return tokens
}
