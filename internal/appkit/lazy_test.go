package appkit

import (
	"testing"

	"repro/internal/uia"
)

// TestDeferredListsBuildOnce: an untouched gallery or combo box keeps its
// items unbuilt; the first open or expansion builds them, and later opens,
// expansions and MaterializeAll reuse the same elements.
func TestDeferredListsBuildOnce(t *testing.T) {
	a := demoApp()
	items := []string{"Style A", "Style B", "Style C"}
	g := a.Gallery("gal", "Styles", items, 2, nil)
	other := a.Gallery("galOther", "Other", items, 2, nil)
	a.Body().MenuButton("btnGal", "Styles", g, nil)
	clickCB := a.Body().ComboBox("cbClick", "Size", []string{"8", "9"}, nil)
	patternCB := a.Body().ComboBox("cbPattern", "Font", []string{"Arial", "Calibri"}, nil)

	galList := g.Win.FindByAutomationID("galItems")
	otherList := other.Win.FindByAutomationID("galOtherItems")
	clickList, patternList := clickCB.Children()[0], patternCB.Children()[0]
	for _, l := range []*uia.Element{galList, otherList, clickList, patternList} {
		if n := len(l.Children()); n != 0 {
			t.Fatalf("untouched %s holds %d items, want 0", l.AutomationID(), n)
		}
	}

	btn := a.Win.FindByAutomationID("btnGal")
	if err := a.Desk.Click(btn); err != nil {
		t.Fatal(err)
	}
	built := append([]*uia.Element(nil), galList.Children()...)
	if len(built) != len(items) {
		t.Fatalf("opened gallery holds %d items, want %d", len(built), len(items))
	}
	if len(otherList.Children()) != 0 {
		t.Fatal("opening one gallery built another")
	}
	a.CloseAllPopups()
	if err := a.Desk.Click(btn); err != nil {
		t.Fatal(err)
	}
	if got := galList.Children(); len(got) != len(built) || got[0] != built[0] {
		t.Fatalf("second open rebuilt the gallery: %d items", len(got))
	}

	// A combo builds on expansion by click or through the pattern.
	for _, c := range []struct {
		cb     *uia.Element
		expand func()
	}{
		{clickCB, func() { _ = a.Desk.Click(clickCB) }},
		{patternCB, func() {
			_ = patternCB.Pattern(uia.ExpandCollapsePattern).(uia.ExpandCollapser).Expand(patternCB)
		}},
	} {
		list := c.cb.Children()[0]
		c.expand()
		first := list.Children()
		if len(first) != 2 || !first[0].OnScreen() {
			t.Fatalf("%s: expansion built %d items", c.cb.AutomationID(), len(first))
		}
		_ = c.cb.Pattern(uia.ExpandCollapsePattern).(uia.ExpandCollapser).Collapse(c.cb)
		c.expand()
		if got := list.Children(); len(got) != 2 || got[0] != first[0] {
			t.Fatalf("%s: second expansion rebuilt the list", c.cb.AutomationID())
		}
	}

	a.MaterializeAll()
	if len(galList.Children()) != len(items) || len(clickList.Children()) != 2 {
		t.Fatal("MaterializeAll rebuilt a built list")
	}
	if len(otherList.Children()) != len(items) {
		t.Fatal("MaterializeAll left a gallery unbuilt")
	}
}

// TestEachItem: the hook reaches items built later, after their own click
// handler, and items already built at once.
func TestEachItem(t *testing.T) {
	a := demoApp()
	var picked, hooked []string
	cb := a.Body().ComboBox("cb", "Size", []string{"8", "9"}, func(_ *App, v string) { picked = append(picked, v) })
	list := cb.Children()[0]
	a.EachItem(list, func(it *uia.Element) {
		it.OnClick(func(e *uia.Element) { hooked = append(hooked, e.Name()) })
	})
	if err := a.Desk.Click(cb); err != nil {
		t.Fatal(err)
	}
	if err := a.Desk.Click(list.Children()[1]); err != nil {
		t.Fatal(err)
	}
	if len(picked) != 1 || picked[0] != "9" || len(hooked) != 1 || hooked[0] != "9" {
		t.Fatalf("picked %v, hooked %v; want [9] [9]", picked, hooked)
	}
	n := 0
	a.EachItem(list, func(*uia.Element) { n++ })
	if n != 2 {
		t.Fatalf("hook on a built list ran %d times, want 2", n)
	}
}
