package uia

import (
	"testing"
	"testing/quick"
)

func TestSimpleValueChangeHook(t *testing.T) {
	var got string
	v := NewValue("a", func(_ *Element, s string) { got = s })
	e := NewElement("e", "Edit", EditControl)
	if err := v.SetValue(e, "b"); err != nil {
		t.Fatal(err)
	}
	if v.Value(e) != "b" || got != "b" {
		t.Errorf("value=%q hook=%q", v.Value(e), got)
	}
}

func TestSimpleScrollAxes(t *testing.T) {
	s := NewVScroll(nil)
	e := NewElement("sb", "Scroll", ScrollBarControl)
	if h, v := s.ScrollPercent(e); h != NoScroll || v != 0 {
		t.Fatalf("initial = %v,%v", h, v)
	}
	if err := s.SetScrollPercent(e, 50, 80); err != nil {
		t.Fatal(err)
	}
	if h, v := s.ScrollPercent(e); h != NoScroll || v != 80 {
		t.Errorf("after set = %v,%v; horizontal axis must stay NoScroll", h, v)
	}
	if err := s.ScrollStep(e, 0, -200); err != nil {
		t.Fatal(err)
	}
	if _, v := s.ScrollPercent(e); v != 0 {
		t.Errorf("step should clamp at 0, got %v", v)
	}
}

func TestSimpleTextLinesAndParagraphs(t *testing.T) {
	body := "Title line\n\nPara two line one\nPara two line two\n\nPara three"
	tx := NewText(body)
	e := NewElement("doc", "Document", DocumentControl)

	if n := tx.LineCount(e); n != 6 {
		t.Fatalf("LineCount = %d, want 6", n)
	}
	if n := tx.ParagraphCount(e); n != 3 {
		t.Fatalf("ParagraphCount = %d, want 3", n)
	}
	if err := tx.SelectParagraphs(e, 2, 2); err != nil {
		t.Fatal(err)
	}
	if got := tx.SelectedText(); got != "Para two line one\nPara two line two" {
		t.Errorf("SelectedText = %q", got)
	}
	if err := tx.SelectLines(e, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := tx.SelectedText(); got != "Title line" {
		t.Errorf("SelectedText = %q", got)
	}
	if err := tx.SelectLines(e, 0, 1); err == nil {
		t.Error("line 0 should be rejected (1-based)")
	}
	if err := tx.SelectParagraphs(e, 3, 4); err == nil {
		t.Error("paragraph range past end should be rejected")
	}
	tx.ClearSelection(e)
	if _, _, ok := tx.Selection(e); ok {
		t.Error("selection should be cleared")
	}
}

func TestSimpleTextEmpty(t *testing.T) {
	tx := NewText("")
	e := NewElement("doc", "Document", DocumentControl)
	if tx.LineCount(e) != 0 || tx.ParagraphCount(e) != 0 {
		t.Error("empty text should have no lines or paragraphs")
	}
	if err := tx.SelectLines(e, 1, 1); err == nil {
		t.Error("selecting in empty text should fail")
	}
}

// Property: for any non-empty selection made through SelectParagraphs, the
// selected line range must cover only non-blank boundary lines.
func TestParagraphSelectionProperty(t *testing.T) {
	f := func(raw []bool) bool {
		if len(raw) == 0 || len(raw) > 40 {
			return true
		}
		lines := make([]string, len(raw))
		for i, nonEmpty := range raw {
			if nonEmpty {
				lines[i] = "text"
			}
		}
		tx := &SimpleText{Lines: lines}
		e := NewElement("doc", "Doc", DocumentControl)
		n := tx.ParagraphCount(e)
		for p := 1; p <= n; p++ {
			if err := tx.SelectParagraphs(e, p, p); err != nil {
				return false
			}
			s, en, ok := tx.Selection(e)
			if !ok || s < 1 || en > len(lines) || s > en {
				return false
			}
			if lines[s-1] == "" || lines[en-1] == "" {
				return false // paragraph boundaries must be non-blank lines
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSelectionList(t *testing.T) {
	list := NewElement("lst", "Slides", ListControl)
	var items []*Element
	sel := NewSelectionList(true, nil)
	list.SetPattern(SelectionPattern, sel)
	for i := 0; i < 3; i++ {
		it := NewElement("", "Slide", ListItemControl)
		it.SetPattern(SelectionItemPattern, sel.Item())
		list.AddChild(it)
		items = append(items, it)
	}
	si := sel.Item()
	if err := si.Select(items[0]); err != nil {
		t.Fatal(err)
	}
	if err := si.AddToSelection(items[2]); err != nil {
		t.Fatal(err)
	}
	got := sel.SelectedItems(list)
	if len(got) != 2 || got[0] != items[0] || got[1] != items[2] {
		t.Fatalf("selected = %v", got)
	}
	// Select replaces the whole selection.
	if err := si.Select(items[1]); err != nil {
		t.Fatal(err)
	}
	if got := sel.SelectedItems(list); len(got) != 1 || got[0] != items[1] {
		t.Fatalf("after Select, selected = %v", got)
	}
	if err := si.RemoveFromSelection(items[1]); err != nil {
		t.Fatal(err)
	}
	if got := sel.SelectedItems(list); len(got) != 0 {
		t.Fatalf("after remove, selected = %v", got)
	}
}

func TestSelectionListSingleMode(t *testing.T) {
	sel := NewSelectionList(false, nil)
	a := NewElement("", "A", ListItemControl)
	b := NewElement("", "B", ListItemControl)
	si := sel.Item()
	if err := si.Select(a); err != nil {
		t.Fatal(err)
	}
	if err := si.AddToSelection(b); err == nil {
		t.Fatal("AddToSelection must fail in single-select mode with a selection")
	}
}

func TestSimpleRange(t *testing.T) {
	r := &SimpleRange{Min: 8, Max: 96, Val: 12}
	e := NewElement("sz", "Font Size", SpinnerControl)
	if err := r.SetRangeValue(e, 40); err != nil {
		t.Fatal(err)
	}
	if r.RangeValue(e) != 40 {
		t.Error("SetRangeValue did not store")
	}
	if err := r.SetRangeValue(e, 1000); err == nil {
		t.Error("out-of-range value accepted")
	}
	if min, max := r.Range(e); min != 8 || max != 96 {
		t.Error("Range wrong")
	}
}

func TestSimpleExpand(t *testing.T) {
	dd := NewElement("dd", "Dropdown", ComboBoxControl)
	content := NewElement("", "Options", ListControl)
	dd.AddChild(content)
	x := NewExpand(content)
	dd.SetPattern(ExpandCollapsePattern, x)

	if content.Visible() {
		t.Fatal("target should start hidden")
	}
	if err := x.Expand(dd); err != nil {
		t.Fatal(err)
	}
	if !content.Visible() || x.ExpandState(dd) != Expanded {
		t.Fatal("expand failed")
	}
	if err := x.Collapse(dd); err != nil {
		t.Fatal(err)
	}
	if content.Visible() || x.ExpandState(dd) != Collapsed {
		t.Fatal("collapse failed")
	}
}

func TestToggleProviderIdempotentSet(t *testing.T) {
	fires := 0
	tg := NewToggle(func(*Element, ToggleState) { fires++ })
	e := NewElement("b", "Bold", ButtonControl)
	if err := tg.SetToggleState(e, ToggleOn); err != nil {
		t.Fatal(err)
	}
	if err := tg.SetToggleState(e, ToggleOn); err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Errorf("change hook fired %d times, want 1 (idempotent set)", fires)
	}
}
