package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/strutil"
	"repro/internal/uia"
)

// This file implements the state and observation declarations (paper §3.5,
// Table 2). Declare runs a state declaration through one table, stateOps,
// whose rows each build on one UIA control pattern.

// The state ops of Table 2, one per row of stateOps; plans and task packs
// name them by these strings.
const (
	OpScrollbar        = "scrollbar"
	OpSelectLines      = "select_lines"
	OpSelectParagraphs = "select_paragraphs"
	OpSelectControls   = "select_controls"
	OpSetRangeValue    = "set_range_value"
	OpSetToggleState   = "set_toggle_state"
	OpSetExpanded      = "set_expanded"
)

// Declaration is one state declaration: the end state its labeled controls
// must reach, regardless of their current state. Only the parameters of
// its Op are read.
type Declaration struct {
	Op     string
	Labels []string // screen labels of the targets: one, or several for select_controls

	H, V       float64 // scrollbar: target percentages; uia.NoScroll leaves an axis unchanged
	Start, End int     // select_lines, select_paragraphs: 1-based inclusive range
	On         bool    // set_toggle_state: on or off; set_expanded: expanded or collapsed
	Value      float64 // set_range_value
}

// stateOp is one row of the declaration table.
type stateOp struct {
	pattern uia.PatternID // every target must support it
	many    bool          // takes one or more targets; otherwise exactly one
	free    bool          // its action is not counted as a UI action
	// bind returns the action that drives one target to the declared
	// state, or nil when the target's provider for pattern lacks the
	// behaviour.
	bind func(provider any) action
}

// action drives el, the i-th target of d, to the declared state.
type action func(el *uia.Element, d *Declaration, i int) error

// on adapts an action over the pattern behaviour P into a row's bind.
func on[P any](act func(p P, el *uia.Element, d *Declaration, i int) error) func(any) action {
	return func(provider any) action {
		p, ok := provider.(P)
		if !ok {
			return nil
		}
		return func(el *uia.Element, d *Declaration, i int) error { return act(p, el, d, i) }
	}
}

var stateOps = map[string]stateOp{
	OpScrollbar: {pattern: uia.ScrollPattern, bind: on(
		func(sc uia.Scroller, el *uia.Element, d *Declaration, _ int) error {
			return sc.SetScrollPercent(el, d.H, d.V)
		})},
	OpSelectLines: {pattern: uia.TextPattern, bind: on(
		func(tx uia.Texter, el *uia.Element, d *Declaration, _ int) error {
			if err := tx.SelectLines(el, d.Start, d.End); err != nil {
				return fmt.Errorf("%v (control has %d lines)", err, tx.LineCount(el))
			}
			return nil
		})},
	OpSelectParagraphs: {pattern: uia.TextPattern, bind: on(
		func(tx uia.Texter, el *uia.Element, d *Declaration, _ int) error {
			if err := tx.SelectParagraphs(el, d.Start, d.End); err != nil {
				return fmt.Errorf("%v (control has %d paragraphs)", err, tx.ParagraphCount(el))
			}
			return nil
		})},
	// The first target replaces the selection; the rest join it.
	OpSelectControls: {pattern: uia.SelectionItemPattern, many: true, bind: on(
		func(si uia.SelectionItem, el *uia.Element, _ *Declaration, i int) error {
			if i == 0 {
				return si.Select(el)
			}
			return si.AddToSelection(el)
		})},
	// Free: counting it would move the report's simulated time (TimeS).
	OpSetRangeValue: {pattern: uia.RangeValuePattern, free: true, bind: on(
		func(rv uia.RangeValuer, el *uia.Element, d *Declaration, _ int) error {
			return rv.SetRangeValue(el, d.Value)
		})},
	// Idempotent: declaring "on" for an already-on control changes nothing.
	OpSetToggleState: {pattern: uia.TogglePattern, bind: on(
		func(tg uia.Toggler, el *uia.Element, d *Declaration, _ int) error {
			if d.On {
				return tg.SetToggleState(el, uia.ToggleOn)
			}
			return tg.SetToggleState(el, uia.ToggleOff)
		})},
	OpSetExpanded: {pattern: uia.ExpandCollapsePattern, bind: on(
		func(xc uia.ExpandCollapser, el *uia.Element, d *Declaration, _ int) error {
			if d.On {
				return xc.Expand(el)
			}
			return xc.Collapse(el)
		})},
}

// IsStateOp reports whether op names a state declaration Declare runs.
func IsStateOp(op string) bool {
	_, ok := stateOps[op]
	return ok
}

// Declare drives the declaration's targets to its end state. Everything
// that can be checked is checked before any target is touched: the op, the
// number of targets, each label, each target's pattern, and that several
// targets share one container able to hold them all selected. Only an
// action the control itself refuses fails after that.
func (s *Session) Declare(lm *LabelMap, d Declaration) *StepError {
	op, ok := stateOps[d.Op]
	if !ok {
		return stepErr(ErrInvalidCommand, -1, "", "", fmt.Sprintf("unknown state op %q", d.Op))
	}
	if len(d.Labels) == 0 || (!op.many && len(d.Labels) > 1) {
		return stepErr(ErrInvalidCommand, -1, "", "",
			fmt.Sprintf("%s declared on %d controls", d.Op, len(d.Labels)))
	}
	els := make([]*uia.Element, len(d.Labels))
	acts := make([]action, len(d.Labels))
	for i, l := range d.Labels {
		el, serr := s.resolveLabel(lm, l)
		if serr != nil {
			return serr
		}
		if acts[i] = op.bind(el.Pattern(op.pattern)); acts[i] == nil {
			return s.noPattern(lm, el, op.pattern.String())
		}
		els[i] = el
	}
	if len(els) > 1 && !multiSelectable(els) {
		return stepErr(ErrBadRange, -1, els[1].Name(), "",
			"targets do not share one multi-select container; declare one at a time")
	}
	for i, el := range els {
		if !op.free {
			s.act()
		}
		if err := acts[i](el, &d, i); err != nil {
			return stepErr(ErrBadRange, -1, el.Name(), "", err.Error())
		}
	}
	return nil
}

// multiSelectable reports whether els all sit in one Selection container
// that can hold them all selected at once.
func multiSelectable(els []*uia.Element) bool {
	var c *uia.Element
	for _, el := range els {
		p := el.Parent()
		for p != nil && !p.HasPattern(uia.SelectionPattern) {
			p = p.Parent()
		}
		if p == nil || (c != nil && p != c) {
			return false
		}
		c = p
	}
	sc, ok := c.Pattern(uia.SelectionPattern).(uia.SelectionContainer)
	return ok && sc.CanSelectMultiple(c)
}

// GetTexts is the active observation mode: it retrieves the full textual
// content of the named controls through Text and Value patterns, without
// truncation (paper §3.5). Results are keyed by the labels exactly as the
// caller passed them, so callers can index the map with what they asked for
// regardless of casing or surrounding whitespace.
func (s *Session) GetTexts(lm *LabelMap, labels []string) (map[string]string, *StepError) {
	out := make(map[string]string, len(labels))
	for _, l := range labels {
		el, serr := s.resolveLabel(lm, l)
		if serr != nil {
			return nil, serr
		}
		text, ok := contentOf(el)
		if !ok {
			return nil, s.noPattern(lm, el, "Text or Value")
		}
		s.act()
		out[l] = text
	}
	return out, nil
}

// PassiveTexts is the passive observation mode invoked before each LLM
// call: every on-screen DataItem's value is collected, truncated to
// truncAt runes, and empty items are coalesced for brevity (paper §3.5,
// "supporting precise perception by default").
func (s *Session) PassiveTexts(lm *LabelMap, truncAt int) string {
	if truncAt <= 0 {
		truncAt = 24
	}
	var b strings.Builder
	empty := 0
	// Emit in capture order (lm.order): it is deterministic per capture and
	// keeps the rendered screen consistent with the labeling the LLM sees.
	// Sorting lines lexicographically by label would not — "AA" sorts
	// before "B" once a screen exceeds 26 controls.
	for i, e := range lm.order {
		if e.Type() != uia.DataItemControl {
			continue
		}
		text, ok := contentOf(e)
		if !ok {
			continue
		}
		if strings.TrimSpace(text) == "" {
			empty++
			continue
		}
		fmt.Fprintf(&b, "%s %s=%s\n",
			alphaLabel(i), e.Name(), strutil.TruncateChars(text, truncAt))
	}
	if empty > 0 {
		fmt.Fprintf(&b, "(%d empty data items omitted)\n", empty)
	}
	return b.String()
}

// PromptStats walks the current screen once and returns the labeled-control
// count plus the passive DataItem payload — the two facts per-call prompt
// costing needs. The payload is byte-identical to
// PassiveTexts(CaptureLabels(), truncAt), but nothing beyond the rendered
// string is materialized: no LabelMap, no label/element maps. The prompt is
// costed before every LLM call, which made the full capture the executor's
// top allocation site.
func (s *Session) PromptStats(truncAt int) (controls int, passive string) {
	if truncAt <= 0 {
		truncAt = 24
	}
	var b strings.Builder
	empty := 0
	for _, e := range s.App.Desk.Snapshot(nil) {
		if e.Parent() == nil {
			continue // window roots are not controls
		}
		i := controls
		controls++
		if e.Type() != uia.DataItemControl {
			continue
		}
		text, ok := contentOf(e)
		if !ok {
			continue
		}
		if strings.TrimSpace(text) == "" {
			empty++
			continue
		}
		fmt.Fprintf(&b, "%s %s=%s\n",
			alphaLabel(i), e.Name(), strutil.TruncateChars(text, truncAt))
	}
	if empty > 0 {
		fmt.Fprintf(&b, "(%d empty data items omitted)\n", empty)
	}
	return controls, b.String()
}

// resolveLabel maps a screen label to its element with structured errors.
func (s *Session) resolveLabel(lm *LabelMap, label string) (*uia.Element, *StepError) {
	if lm == nil {
		return nil, stepErr(ErrUnknownLabel, -1, label, "", "no screen capture available")
	}
	el := lm.Element(label)
	if el == nil {
		return nil, stepErr(ErrUnknownLabel, -1, label, "",
			"label not present on the current screen; labels are per-capture")
	}
	if !el.OnScreen() {
		return nil, stepErr(ErrNotFound, -1, el.Name(), "offscreen",
			"control left the screen since the capture")
	}
	return el, nil
}

func (s *Session) noPattern(lm *LabelMap, el *uia.Element, pattern string) *StepError {
	pats := el.PatternIDs()
	names := make([]string, 0, len(pats))
	for _, p := range pats {
		names = append(names, p.String())
	}
	sort.Strings(names)
	return stepErr(ErrNoPattern, -1, el.Name(), "supported="+strings.Join(names, "/"),
		"control does not support the "+pattern+" pattern")
}

func contentOf(e *uia.Element) (string, bool) {
	if v, ok := e.Pattern(uia.ValuePattern).(uia.Valuer); ok {
		return v.Value(e), true
	}
	if tx, ok := e.Pattern(uia.TextPattern).(uia.Texter); ok {
		return tx.Text(e), true
	}
	return "", false
}

func (s *Session) act() {
	s.Actions++
	s.App.Desk.Clock().Advance(uiCost)
}
