package appkit

import (
	"testing"

	"repro/internal/uia"
)

func TestDetailTogglePair(t *testing.T) {
	a := New("Demo")
	dlg := a.NewDialog("dlgX", "Settings")
	p := dlg.Panel()
	pane := p.Pane("pnlDetails", "Details")
	pane.CheckBox("chkOpt", "Option", func(*App) bool { return false }, func(*App, bool) {})
	more, less := AddDetailToggle(p, "btnX", "More", "Less", pane.El)

	a.Body().DialogButton("btnOpen", "Open", dlg, nil)
	a.Desk.Click(a.Win.FindByAutomationID("btnOpen"))

	if pane.El.OnScreen() || less.OnScreen() || !more.OnScreen() {
		t.Fatal("dialog should open collapsed with More visible")
	}
	a.Desk.Click(more)
	if !pane.El.OnScreen() || !less.OnScreen() || more.OnScreen() {
		t.Fatal("More should reveal the pane and the Less button")
	}
	a.Desk.Click(less)
	if pane.El.OnScreen() || less.OnScreen() || !more.OnScreen() {
		t.Fatal("Less should re-reveal More (the cycle edge)")
	}
}

func TestColorPickerStructure(t *testing.T) {
	a := New("Demo")
	picker := a.ColorPicker("clr", "Colors", func(*App, string) {})
	// Theme grid: 10 columns × 6 variants; standard row: 10; plus
	// Automatic and No Color.
	theme := picker.Win.FindByAutomationID("clrTheme")
	if got := len(theme.Children()); got != 60 {
		t.Errorf("theme grid has %d cells, want 60", got)
	}
	std := picker.Win.FindByAutomationID("clrStd")
	if got := len(std.Children()); got != 10 {
		t.Errorf("standard row has %d cells, want 10", got)
	}
	if picker.Win.FindByName("Automatic") == nil || picker.Win.FindByName("No Color") == nil {
		t.Error("Automatic / No Color entries missing")
	}
	if picker.Win.FindByAutomationID("clrMore") == nil {
		t.Error("More Colors… entry missing")
	}
}

func TestRibbonCollapsePairTypes(t *testing.T) {
	a := New("Demo")
	a.Tab("tabHome", "Home")
	collapse, pin := a.AddRibbonCollapse()
	if collapse.Type() != uia.ButtonControl || pin.Type() != uia.ButtonControl {
		t.Error("collapse pair should be buttons")
	}
	if pin.Visible() {
		t.Error("pin should start hidden")
	}
}

func TestWizardFinishFromAnyStep(t *testing.T) {
	a := New("Demo")
	done := 0
	wiz := a.Wizard("wz", "W", []WizardStep{
		{Name: "one"}, {Name: "two"},
	}, func(*App) { done++ })
	a.Body().DialogButton("btnW", "Open", wiz, nil)
	a.Desk.Click(a.Win.FindByAutomationID("btnW"))
	// Finish directly from step 1.
	a.Desk.Click(wiz.Win.FindByAutomationID("wzFinish"))
	if done != 1 || wiz.IsOpen() {
		t.Fatal("finish from step 1 failed")
	}
	// Reopen: wizard must reset to step 1 (OnOpen hook).
	a.Desk.Click(a.Win.FindByAutomationID("btnW"))
	if !wiz.Win.FindByAutomationID("wzStep1").OnScreen() {
		t.Fatal("wizard did not reset to step 1 on reopen")
	}
}

// TestChoiceList: activating an item makes it the pending choice the
// dialog's OK reads, Clear drops it, and on a pooled instance the choice
// rewinds with the undo log like the elements do.
func TestChoiceList(t *testing.T) {
	a := demoApp()
	dlg := a.NewDialog("dlgChoice", "Choose")
	c := dlg.Panel().ChoiceList("lstChoice", "Choices", []string{"One", "Two"})
	applied := ""
	ok, _ := dlg.AddOKCancel(func(*App) { applied = c.Chosen() })
	a.Body().DialogButton("btnChoice", "Choose", dlg, nil)
	list := dlg.Win.FindByAutomationID("lstChoice")
	if list == nil || list.Type() != uia.ListControl || len(list.Children()) != 2 {
		t.Fatalf("choice list %v", list)
	}

	log := uia.NewUndoLog()
	log.Attach(a.Win)
	log.Attach(a.AllPopupWindows()...)
	log.SetRecording(true)
	for _, el := range []*uia.Element{a.Win.FindByAutomationID("btnChoice"), list.Children()[1], ok} {
		if err := a.Desk.Click(el); err != nil {
			t.Fatal(err)
		}
	}
	if applied != "Two" || c.Chosen() != "Two" {
		t.Fatalf("OK applied %q with %q pending, want Two", applied, c.Chosen())
	}
	log.Rewind()
	if c.Chosen() != "" {
		t.Fatalf("pending choice %q survived the rewind", c.Chosen())
	}

	if err := a.Desk.Click(list.Children()[0]); err != nil {
		t.Fatal(err)
	}
	if c.Chosen() != "One" {
		t.Fatalf("pending choice %q, want One", c.Chosen())
	}
	c.Clear()
	if c.Chosen() != "" {
		t.Fatalf("Clear left %q", c.Chosen())
	}
}

// TestStackRewinds: the popup stack, the binding and the active contexts
// go through the undo seam, so rewinding to a mark taken with one popup
// open and a context active restores exactly that, whatever was opened,
// closed or entered since.
func TestStackRewinds(t *testing.T) {
	a := demoApp()
	a.RegisterContext(Context{Name: "picked"})
	a.RegisterContext(Context{Name: "later"})
	outer, inner := a.NewMenu("mnuOuter", "Outer"), a.NewMenu("mnuInner", "Inner")
	log := uia.NewUndoLog()
	log.Attach(a.Win)
	log.Attach(a.AllPopupWindows()...)
	log.SetRecording(true)

	outer.Open("outer binding")
	if err := a.EnterContext("picked"); err != nil {
		t.Fatal(err)
	}
	mark := log.Mark()
	inner.Open("inner binding")
	a.CloseAllPopups()
	if err := a.EnterContext("later"); err != nil {
		t.Fatal(err)
	}
	inner.Open("again")
	log.RewindTo(mark)
	if a.OpenPopups() != 1 || a.popups[0] != outer || a.Binding() != "outer binding" ||
		!a.ContextActive("picked") || a.ContextActive("later") {
		t.Fatalf("after the rewind: %d popups, binding %v, contexts active %v/%v; want outer open, its binding, picked only",
			a.OpenPopups(), a.Binding(), a.ContextActive("picked"), a.ContextActive("later"))
	}
	log.Rewind()
	if a.OpenPopups() != 0 || a.Binding() != nil || a.ContextActive("picked") {
		t.Fatalf("after the full rewind: %d popups, binding %v, context active %v; want none",
			a.OpenPopups(), a.Binding(), a.ContextActive("picked"))
	}
}
