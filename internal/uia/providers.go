package uia

import (
	"fmt"
	"strings"
)

// This file provides reusable state-backed pattern providers so that
// applications don't re-implement common control behaviour. Each provider
// stores its state internally and can notify the application of changes.
// Setters store through the undo seam (undo.go), keyed by the element they
// are called with, so a pooled instance's provider state rewinds with its
// elements.

// ToggleState provider ------------------------------------------------------

// SimpleToggle is a Toggler backed by a stored state.
type SimpleToggle struct {
	State    ToggleState
	OnChange func(e *Element, s ToggleState)
}

// NewToggle creates a toggle provider starting at ToggleOff.
//
//dmi:testonly provider API next to NewText; uia tests build toggles with it
func NewToggle(onChange func(e *Element, s ToggleState)) *SimpleToggle {
	return &SimpleToggle{OnChange: onChange}
}

// ToggleState returns the stored state.
func (t *SimpleToggle) ToggleState(*Element) ToggleState { return t.State }

// SetToggleState stores the state and fires the change hook.
func (t *SimpleToggle) SetToggleState(e *Element, s ToggleState) error {
	if t.State == s {
		return nil
	}
	Store(e, &t.State, s)
	if t.OnChange != nil {
		t.OnChange(e, s)
	}
	return nil
}

// Value provider -------------------------------------------------------------

// SimpleValue is a Valuer backed by a stored string.
type SimpleValue struct {
	Val      string
	ReadOnly bool
	OnChange func(e *Element, v string)
}

// NewValue creates a writable value provider.
func NewValue(initial string, onChange func(e *Element, v string)) *SimpleValue {
	return &SimpleValue{Val: initial, OnChange: onChange}
}

// Value returns the stored string.
func (v *SimpleValue) Value(*Element) string { return v.Val }

// SetValue stores the string and fires the change hook.
func (v *SimpleValue) SetValue(e *Element, s string) error {
	if v.ReadOnly {
		return fmt.Errorf("uia: value of %s is read-only", e)
	}
	Store(e, &v.Val, s)
	if v.OnChange != nil {
		v.OnChange(e, s)
	}
	return nil
}

// IsReadOnly reports the read-only flag.
func (v *SimpleValue) IsReadOnly(*Element) bool { return v.ReadOnly }

// Scroll provider ------------------------------------------------------------

// SimpleScroll is a Scroller backed by stored percentages. Disable an axis
// with NoScroll.
type SimpleScroll struct {
	H, V     float64
	OnChange func(e *Element, h, v float64)
}

// NewVScroll creates a vertical-only scroll provider at 0%.
func NewVScroll(onChange func(e *Element, h, v float64)) *SimpleScroll {
	return &SimpleScroll{H: NoScroll, OnChange: onChange}
}

// ScrollPercent returns the stored axis positions.
func (s *SimpleScroll) ScrollPercent(*Element) (float64, float64) { return s.H, s.V }

// SetScrollPercent stores positions, clamping to [0,100]; NoScroll axes are
// preserved by passing NoScroll.
func (s *SimpleScroll) SetScrollPercent(e *Element, h, v float64) error {
	if s.H != NoScroll && h != NoScroll {
		Store(e, &s.H, clampPercent(h))
	}
	if s.V != NoScroll && v != NoScroll {
		Store(e, &s.V, clampPercent(v))
	}
	if s.OnChange != nil {
		s.OnChange(e, s.H, s.V)
	}
	return nil
}

// ScrollStep nudges each scrollable axis by the given delta.
func (s *SimpleScroll) ScrollStep(e *Element, dh, dv float64) error {
	h, v := s.H, s.V
	if h != NoScroll {
		h += dh
	}
	if v != NoScroll {
		v += dv
	}
	return s.SetScrollPercent(e, h, v)
}

// Text provider ---------------------------------------------------------------

// SimpleText is a Texter over a line-oriented body. Paragraphs are runs of
// non-empty lines separated by blank lines. Line and paragraph indices are
// 1-based, matching the select_lines / select_paragraphs interfaces.
type SimpleText struct {
	Lines    []string
	selStart int // 1-based inclusive; 0 = no selection
	selEnd   int
	OnSelect func(e *Element, start, end int)
}

// NewText creates a text provider from a body split on newlines.
//
//dmi:testonly provider API; uia and core tests build text controls with it
func NewText(body string) *SimpleText {
	if body == "" {
		return &SimpleText{}
	}
	return &SimpleText{Lines: strings.Split(body, "\n")}
}

// Text returns the joined body.
func (t *SimpleText) Text(*Element) string { return strings.Join(t.Lines, "\n") }

// LineCount returns the number of lines.
func (t *SimpleText) LineCount(*Element) int { return len(t.Lines) }

// SelectLines selects the 1-based inclusive line range [start, end].
func (t *SimpleText) SelectLines(e *Element, start, end int) error {
	if start < 1 || end < start || end > len(t.Lines) {
		return fmt.Errorf("uia: line range [%d,%d] out of bounds (1..%d)", start, end, len(t.Lines))
	}
	t.setSelection(e, start, end)
	if t.OnSelect != nil {
		t.OnSelect(e, start, end)
	}
	return nil
}

// paragraphRanges returns the 1-based [start,end] line range of each
// paragraph.
func (t *SimpleText) paragraphRanges() [][2]int {
	var out [][2]int
	start := 0
	for i, l := range t.Lines {
		if strings.TrimSpace(l) == "" {
			if start > 0 {
				out = append(out, [2]int{start, i})
				start = 0
			}
			continue
		}
		if start == 0 {
			start = i + 1
		}
	}
	if start > 0 {
		out = append(out, [2]int{start, len(t.Lines)})
	}
	return out
}

// ParagraphCount returns the number of paragraphs.
func (t *SimpleText) ParagraphCount(*Element) int { return len(t.paragraphRanges()) }

// SelectParagraphs selects the contiguous 1-based paragraph range
// [start, end], expressed as the underlying line selection.
func (t *SimpleText) SelectParagraphs(e *Element, start, end int) error {
	ranges := t.paragraphRanges()
	if start < 1 || end < start || end > len(ranges) {
		return fmt.Errorf("uia: paragraph range [%d,%d] out of bounds (1..%d)", start, end, len(ranges))
	}
	t.setSelection(e, ranges[start-1][0], ranges[end-1][1])
	if t.OnSelect != nil {
		t.OnSelect(e, t.selStart, t.selEnd)
	}
	return nil
}

// setSelection stores the 1-based line selection through the undo seam.
func (t *SimpleText) setSelection(e *Element, start, end int) {
	Store(e, &t.selStart, start)
	Store(e, &t.selEnd, end)
}

// Selection returns the current 1-based line selection.
func (t *SimpleText) Selection(*Element) (int, int, bool) {
	return t.selStart, t.selEnd, t.selStart > 0
}

// SelectedText returns the text of the selected lines, or "".
func (t *SimpleText) SelectedText() string {
	if t.selStart == 0 {
		return ""
	}
	return strings.Join(t.Lines[t.selStart-1:t.selEnd], "\n")
}

// ClearSelection drops the selection (e owns the provider, see Store).
func (t *SimpleText) ClearSelection(e *Element) { t.setSelection(e, 0, 0) }

// Selection list provider -----------------------------------------------------

// SimpleSelectionList coordinates a Selection container and its
// SelectionItem children. Attach the container half to the list element with
// SelectionPattern and the item half (Item method) to each child with
// SelectionItemPattern.
type SimpleSelectionList struct {
	Multi    bool
	selected map[*Element]bool
	OnChange func(selected []*Element)
}

// NewSelectionList creates a selection coordinator.
func NewSelectionList(multi bool, onChange func([]*Element)) *SimpleSelectionList {
	return &SimpleSelectionList{Multi: multi, selected: make(map[*Element]bool), OnChange: onChange}
}

// SelectedItems returns the selected children of the container in tree
// order.
func (l *SimpleSelectionList) SelectedItems(container *Element) []*Element {
	var out []*Element
	container.Walk(func(e *Element) bool {
		if l.selected[e] {
			out = append(out, e)
		}
		return true
	})
	return out
}

// CanSelectMultiple reports multi-select support.
func (l *SimpleSelectionList) CanSelectMultiple(*Element) bool { return l.Multi }

// Item returns the SelectionItem half for a child element.
func (l *SimpleSelectionList) Item() SelectionItem { return (*selectionListItem)(l) }

type selectionListItem SimpleSelectionList

func (li *selectionListItem) IsSelected(e *Element) bool { return li.selected[e] }

func (li *selectionListItem) Select(e *Element) error {
	storeSet(e, li.selected)
	for k := range li.selected {
		delete(li.selected, k)
	}
	li.selected[e] = true
	li.fire(e)
	return nil
}

func (li *selectionListItem) AddToSelection(e *Element) error {
	if !li.Multi && len(li.selected) > 0 {
		return fmt.Errorf("uia: %s does not support multi-select", e)
	}
	storeSet(e, li.selected)
	li.selected[e] = true
	li.fire(e)
	return nil
}

func (li *selectionListItem) RemoveFromSelection(e *Element) error {
	storeSet(e, li.selected)
	delete(li.selected, e)
	li.fire(e)
	return nil
}

func (li *selectionListItem) fire(e *Element) {
	if li.OnChange == nil {
		return
	}
	root := e.Root()
	(*SimpleSelectionList)(li).notifyFrom(root)
}

func (l *SimpleSelectionList) notifyFrom(root *Element) {
	if l.OnChange != nil {
		l.OnChange(l.SelectedItems(root))
	}
}

// Range value provider --------------------------------------------------------

// SimpleRange is a RangeValuer backed by a stored float.
type SimpleRange struct {
	Val, Min, Max float64
	OnChange      func(e *Element, v float64)
}

// RangeValue returns the stored value.
func (r *SimpleRange) RangeValue(*Element) float64 { return r.Val }

// SetRangeValue stores the value, rejecting out-of-range targets.
func (r *SimpleRange) SetRangeValue(e *Element, v float64) error {
	if v < r.Min || v > r.Max {
		return fmt.Errorf("uia: range value %v outside [%v,%v]", v, r.Min, r.Max)
	}
	Store(e, &r.Val, v)
	if r.OnChange != nil {
		r.OnChange(e, v)
	}
	return nil
}

// Range returns the bounds.
func (r *SimpleRange) Range(*Element) (float64, float64) { return r.Min, r.Max }

// Expand/collapse provider ----------------------------------------------------

// SimpleExpand is an ExpandCollapser that shows or hides a target element
// (typically the dropdown content pane) when expanded or collapsed.
type SimpleExpand struct {
	Target   *Element
	state    ExpandState
	OnChange func(e *Element, s ExpandState)
}

// NewExpand creates a collapsed expander controlling target's visibility.
func NewExpand(target *Element) *SimpleExpand {
	if target != nil {
		target.SetVisible(false)
	}
	return &SimpleExpand{Target: target, state: Collapsed}
}

// ExpandState returns the stored state.
func (x *SimpleExpand) ExpandState(*Element) ExpandState { return x.state }

// Expand shows the target.
func (x *SimpleExpand) Expand(e *Element) error {
	Store(e, &x.state, Expanded)
	if x.Target != nil {
		x.Target.SetVisible(true)
	}
	if x.OnChange != nil {
		x.OnChange(e, x.state)
	}
	return nil
}

// Collapse hides the target.
func (x *SimpleExpand) Collapse(e *Element) error {
	Store(e, &x.state, Collapsed)
	if x.Target != nil {
		x.Target.SetVisible(false)
	}
	if x.OnChange != nil {
		x.OnChange(e, x.state)
	}
	return nil
}
