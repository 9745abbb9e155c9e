package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/strutil"
	"repro/internal/uia"
)

// This file implements the state and observation declarations (paper §3.5,
// Table 2). Each interface is built on a UIA control pattern, validates
// conservatively (no partial execution), and returns a structured status.

// ScrollStatus reports a scrollbar's position after a state declaration.
type ScrollStatus struct {
	H, V float64 // percentages; NoScroll (-1) for disabled axes
}

// SetScrollbarPos drives a Scroll-pattern control to the target percentages
// regardless of its current position — the declarative replacement for the
// iterative drag loop of Table 1, Task 2. Pass uia.NoScroll to leave an
// axis unchanged.
func (s *Session) SetScrollbarPos(lm *LabelMap, label string, h, v float64) (ScrollStatus, *StepError) {
	el, serr := s.resolveLabel(lm, label)
	if serr != nil {
		return ScrollStatus{}, serr
	}
	sc, ok := el.Pattern(uia.ScrollPattern).(uia.Scroller)
	if !ok {
		return ScrollStatus{}, s.noPattern(lm, el, "Scroll")
	}
	s.act()
	if err := sc.SetScrollPercent(el, h, v); err != nil {
		return ScrollStatus{}, stepErr(ErrBadRange, -1, el.Name(), "", err.Error())
	}
	ch, cv := sc.ScrollPercent(el)
	return ScrollStatus{H: ch, V: cv}, nil
}

// SelectLines selects one line or a contiguous line range (1-based,
// inclusive) of a Text-pattern control.
func (s *Session) SelectLines(lm *LabelMap, label string, start, end int) *StepError {
	el, serr := s.resolveLabel(lm, label)
	if serr != nil {
		return serr
	}
	tx, ok := el.Pattern(uia.TextPattern).(uia.Texter)
	if !ok {
		return s.noPattern(lm, el, "Text")
	}
	s.act()
	if err := tx.SelectLines(el, start, end); err != nil {
		return stepErr(ErrBadRange, -1, el.Name(), "",
			fmt.Sprintf("%v (control has %d lines)", err, tx.LineCount(el)))
	}
	return nil
}

// SelectParagraphs selects one paragraph or a contiguous paragraph range
// (1-based, inclusive) of a Text-pattern control.
func (s *Session) SelectParagraphs(lm *LabelMap, label string, start, end int) *StepError {
	el, serr := s.resolveLabel(lm, label)
	if serr != nil {
		return serr
	}
	tx, ok := el.Pattern(uia.TextPattern).(uia.Texter)
	if !ok {
		return s.noPattern(lm, el, "Text")
	}
	s.act()
	if err := tx.SelectParagraphs(el, start, end); err != nil {
		return stepErr(ErrBadRange, -1, el.Name(), "",
			fmt.Sprintf("%v (control has %d paragraphs)", err, tx.ParagraphCount(el)))
	}
	return nil
}

// SelectControls single- or multi-selects SelectionItem controls. All
// targets are validated before anything executes: if any control lacks the
// pattern, nothing is selected (§4.4, conservative execution).
func (s *Session) SelectControls(lm *LabelMap, labels []string) *StepError {
	if len(labels) == 0 {
		return stepErr(ErrBadRange, -1, "", "", "select_controls needs at least one label")
	}
	els := make([]*uia.Element, 0, len(labels))
	items := make([]uia.SelectionItem, 0, len(labels))
	for _, l := range labels {
		el, serr := s.resolveLabel(lm, l)
		if serr != nil {
			return serr
		}
		si, ok := el.Pattern(uia.SelectionItemPattern).(uia.SelectionItem)
		if !ok {
			return s.noPattern(lm, el, "SelectionItem")
		}
		els = append(els, el)
		items = append(items, si)
	}
	s.act()
	if err := items[0].Select(els[0]); err != nil {
		return stepErr(ErrBadRange, -1, els[0].Name(), "", err.Error())
	}
	for i := 1; i < len(els); i++ {
		s.act()
		if err := items[i].AddToSelection(els[i]); err != nil {
			return stepErr(ErrBadRange, -1, els[i].Name(), "", err.Error())
		}
	}
	return nil
}

// SetToggleState drives a Toggle-pattern control to the desired state
// idempotently: declaring "on" for an already-on control is a no-op rather
// than a toggle.
func (s *Session) SetToggleState(lm *LabelMap, label string, on bool) *StepError {
	el, serr := s.resolveLabel(lm, label)
	if serr != nil {
		return serr
	}
	tg, ok := el.Pattern(uia.TogglePattern).(uia.Toggler)
	if !ok {
		return s.noPattern(lm, el, "Toggle")
	}
	want := uia.ToggleOff
	if on {
		want = uia.ToggleOn
	}
	s.act()
	if err := tg.SetToggleState(el, want); err != nil {
		return stepErr(ErrBadRange, -1, el.Name(), "", err.Error())
	}
	return nil
}

// SetExpanded drives an ExpandCollapse-pattern control to the declared
// state.
func (s *Session) SetExpanded(lm *LabelMap, label string, expanded bool) *StepError {
	el, serr := s.resolveLabel(lm, label)
	if serr != nil {
		return serr
	}
	xc, ok := el.Pattern(uia.ExpandCollapsePattern).(uia.ExpandCollapser)
	if !ok {
		return s.noPattern(lm, el, "ExpandCollapse")
	}
	s.act()
	var err error
	if expanded {
		err = xc.Expand(el)
	} else {
		err = xc.Collapse(el)
	}
	if err != nil {
		return stepErr(ErrBadRange, -1, el.Name(), "", err.Error())
	}
	return nil
}

// SetTexts writes a Value-pattern control's content (builds on TextPattern
// and ValuePattern per Table 2's extensibility note).
func (s *Session) SetTexts(lm *LabelMap, label, text string) *StepError {
	el, serr := s.resolveLabel(lm, label)
	if serr != nil {
		return serr
	}
	v, ok := el.Pattern(uia.ValuePattern).(uia.Valuer)
	if !ok {
		return s.noPattern(lm, el, "Value")
	}
	s.act()
	if err := v.SetValue(el, text); err != nil {
		return stepErr(ErrInputFailed, -1, el.Name(), "", err.Error())
	}
	return nil
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
	for _, e := range lm.order {
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
			lm.labels[e], e.Name(), strutil.TruncateChars(text, truncAt))
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
