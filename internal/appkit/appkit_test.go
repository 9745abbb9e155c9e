package appkit

import (
	"testing"

	"repro/internal/uia"
)

func demoApp() *App {
	a := New("Demo")
	home := a.Tab("tabHome", "Home")
	font := home.Group("grpFont", "Font")
	font.ToggleButton("btnBold", "Bold",
		func(a *App) bool { return false },
		func(a *App, on bool) {})
	ins := a.Tab("tabInsert", "Insert")
	ins.Group("grpTables", "Tables").Button("btnTable", "Table", nil)
	return a
}

func TestTabSwitching(t *testing.T) {
	a := demoApp()
	if a.ActiveTab() != "Home" {
		t.Fatalf("default tab = %q, want Home", a.ActiveTab())
	}
	tabInsert := a.Win.FindByAutomationID("tabInsert")
	if err := a.Desk.Click(tabInsert); err != nil {
		t.Fatal(err)
	}
	if a.ActiveTab() != "Insert" {
		t.Fatalf("active = %q, want Insert", a.ActiveTab())
	}
	// Home panel content must now be off screen.
	bold := a.Win.FindByAutomationID("btnBold")
	if bold.OnScreen() {
		t.Fatal("Home content visible while Insert active")
	}
}

func TestPopupOpenCloseEsc(t *testing.T) {
	a := demoApp()
	menu := a.NewMenu("mnuTest", "Test Menu")
	picked := ""
	menu.Panel().MenuItem("itA", "Option A", func(*App) { picked = "A" })
	a.Body().MenuButton("btnMenu", "Open Test", menu, nil)

	opener := a.Win.FindByAutomationID("btnMenu")
	if err := a.Desk.Click(opener); err != nil {
		t.Fatal(err)
	}
	if !menu.IsOpen() || a.OpenPopups() != 1 {
		t.Fatal("menu did not open")
	}
	// Esc dismisses.
	if err := a.Desk.PressKey("ESC"); err != nil {
		t.Fatal(err)
	}
	if menu.IsOpen() {
		t.Fatal("Esc did not close the menu")
	}
	// Leaf activation auto-closes.
	if err := a.Desk.Click(opener); err != nil {
		t.Fatal(err)
	}
	item := menu.Win.FindByAutomationID("itA")
	if err := a.Desk.Click(item); err != nil {
		t.Fatal(err)
	}
	if picked != "A" || menu.IsOpen() {
		t.Fatalf("picked=%q open=%v", picked, menu.IsOpen())
	}
}

func TestDialogOKCancel(t *testing.T) {
	a := demoApp()
	dlg := a.NewDialog("dlgTest", "Test Dialog")
	applied := 0
	okBtn, cancelBtn := dlg.AddOKCancel(func(*App) { applied++ })
	a.Body().DialogButton("btnDlg", "Open Dialog", dlg, nil)
	opener := a.Win.FindByAutomationID("btnDlg")

	if err := a.Desk.Click(opener); err != nil {
		t.Fatal(err)
	}
	if err := a.Desk.Click(okBtn); err != nil {
		t.Fatal(err)
	}
	if applied != 1 || dlg.IsOpen() {
		t.Fatal("OK did not apply and close")
	}

	if err := a.Desk.Click(opener); err != nil {
		t.Fatal(err)
	}
	if err := a.Desk.Click(cancelBtn); err != nil {
		t.Fatal(err)
	}
	if applied != 1 || dlg.IsOpen() {
		t.Fatal("Cancel applied or failed to close")
	}

	// Title bar close button also closes.
	if err := a.Desk.Click(opener); err != nil {
		t.Fatal(err)
	}
	closeBtn := dlg.Win.FindByAutomationID("dlgTestClose")
	if err := a.Desk.Click(closeBtn); err != nil {
		t.Fatal(err)
	}
	if dlg.IsOpen() {
		t.Fatal("Close button did not close dialog")
	}
}

func TestNestedPopupChainCloses(t *testing.T) {
	a := demoApp()
	outer := a.NewMenu("mnuOuter", "Outer")
	inner := a.NewDialog("dlgInner", "Inner")
	inner.AddOKCancel(nil)
	outer.Panel().DialogButton("btnInner", "Open Inner", inner, nil)
	a.Body().MenuButton("btnOuter", "Open Outer", outer, nil)

	a.Desk.Click(a.Win.FindByAutomationID("btnOuter"))
	a.Desk.Click(outer.Win.FindByAutomationID("btnInner"))
	if a.OpenPopups() != 2 {
		t.Fatalf("open popups = %d, want 2", a.OpenPopups())
	}
	// Closing the outer one kills the chain.
	a.CloseTopPopup(false) // inner
	a.CloseTopPopup(false) // outer
	if a.OpenPopups() != 0 {
		t.Fatal("chain not fully closed")
	}

	a.Desk.Click(a.Win.FindByAutomationID("btnOuter"))
	a.Desk.Click(outer.Win.FindByAutomationID("btnInner"))
	a.closePopup(outer, false) // close outer directly: inner must die too
	if a.OpenPopups() != 0 || inner.IsOpen() {
		t.Fatal("closing outer popup should close inner chain")
	}
}

func TestBindingFlowsToSharedPicker(t *testing.T) {
	a := demoApp()
	var got []string
	picker := a.ColorPicker("clr", "Colors", func(app *App, color string) {
		got = append(got, app.Binding().(string)+"="+color)
	})
	home := Panel{App: a, El: a.Win.FindByAutomationID("tabHomePanel")}
	home.MenuButton("btnFontColor", "Font Color", picker, func(*App) any { return "font" })
	home.MenuButton("btnUnderlineColor", "Underline Color", picker, func(*App) any { return "underline" })

	a.Desk.Click(a.Win.FindByAutomationID("btnFontColor"))
	blue := picker.Win.FindByName("Blue")
	if blue == nil {
		t.Fatal("picker has no Blue cell")
	}
	if err := a.Desk.Click(blue); err != nil {
		t.Fatal(err)
	}

	a.Desk.Click(a.Win.FindByAutomationID("btnUnderlineColor"))
	blue = picker.Win.FindByName("Blue")
	if err := a.Desk.Click(blue); err != nil {
		t.Fatal(err)
	}

	if len(got) != 2 || got[0] != "font=Blue" || got[1] != "underline=Blue" {
		t.Fatalf("path-dependent semantics broken: %v", got)
	}
	if picker.IsOpen() {
		t.Fatal("picking a color should close the flyout")
	}
}

func TestMoreColorsDialogKeepsBinding(t *testing.T) {
	a := demoApp()
	var got string
	picker := a.ColorPicker("clr", "Colors", func(app *App, color string) {
		got = app.Binding().(string) + "=" + color
	})
	a.Body().MenuButton("btnFill", "Fill Color", picker, func(*App) any { return "fill" })

	a.Desk.Click(a.Win.FindByAutomationID("btnFill"))
	a.Desk.Click(picker.Win.FindByAutomationID("clrMore"))
	if a.OpenPopups() != 2 {
		t.Fatalf("open popups = %d, want picker+dialog", a.OpenPopups())
	}
	dlg := a.popups[1]
	r := dlg.Win.FindByAutomationID("clrR")
	r.Pattern(uia.RangeValuePattern).(uia.RangeValuer).SetRangeValue(r, 12)
	okBtn := dlg.Win.FindByAutomationID("clrMoreDlgOK")
	if err := a.Desk.Click(okBtn); err != nil {
		t.Fatal(err)
	}
	if got != "fill=RGB(12,0,0)" {
		t.Fatalf("got %q", got)
	}
	if a.OpenPopups() != 0 {
		t.Fatal("OK in More Colors should close the whole chain")
	}
}

func TestGalleryExposesAllItems(t *testing.T) {
	a := demoApp()
	items := make([]string, 25)
	for i := range items {
		items[i] = "Style " + string(rune('A'+i))
	}
	var picked string
	g := a.Gallery("gal", "Styles", items, 10, func(_ *App, it string) { picked = it })
	a.Body().MenuButton("btnGal", "Styles", g, nil)
	a.Desk.Click(a.Win.FindByAutomationID("btnGal"))

	// Every item is in the accessibility tree, even past the viewport —
	// the property the offline ripper depends on.
	first := g.Win.FindByName("Style A")
	last := g.Win.FindByName("Style " + string(rune('A'+24)))
	if first == nil || !first.OnScreen() || last == nil || !last.OnScreen() {
		t.Fatal("gallery items not all exposed")
	}
	// The scroll affordance pans the viewport without changing exposure.
	list := g.Win.FindByAutomationID("galItems")
	sc, ok := list.Pattern(uia.ScrollPattern).(uia.Scroller)
	if !ok {
		t.Fatal("long gallery lacks Scroll pattern")
	}
	a.Desk.Click(g.Win.FindByAutomationID("galNext"))
	if _, v := sc.ScrollPercent(list); v <= 0 {
		t.Fatal("Next Row did not scroll")
	}
	a.Desk.Click(first)
	if picked != "Style A" || g.IsOpen() {
		t.Fatalf("picked=%q open=%v", picked, g.IsOpen())
	}
	// Short galleries are not large enumerations; long ones are.
	if list.LargeEnum() {
		t.Error("25-item gallery should not be a large enumeration")
	}
	big := a.Gallery("galBig", "Big", make([]string, 60), 10, nil)
	if !big.Win.FindByAutomationID("galBigItems").LargeEnum() {
		t.Error("60-item gallery should be a large enumeration")
	}
}

func TestWizardBackNextCycle(t *testing.T) {
	a := demoApp()
	finished := false
	wiz := a.Wizard("wiz", "Convert Wizard", []WizardStep{
		{Name: "Choose type", Build: func(p Panel) { p.Label("Type") }},
		{Name: "Set delimiters", Build: func(p Panel) { p.Label("Delims") }},
		{Name: "Finish up", Build: func(p Panel) { p.Label("Done") }},
	}, func(*App) { finished = true })
	a.Body().DialogButton("btnWiz", "Open Wizard", wiz, nil)
	a.Desk.Click(a.Win.FindByAutomationID("btnWiz"))

	step1 := wiz.Win.FindByAutomationID("wizStep1")
	step2 := wiz.Win.FindByAutomationID("wizStep2")
	next := wiz.Win.FindByAutomationID("wizNextStep")
	back := wiz.Win.FindByAutomationID("wizBack")

	if !step1.OnScreen() || step2.OnScreen() {
		t.Fatal("wizard should open at step 1")
	}
	a.Desk.Click(next)
	if step1.OnScreen() || !step2.OnScreen() {
		t.Fatal("Next did not advance")
	}
	a.Desk.Click(back)
	if !step1.OnScreen() {
		t.Fatal("Back did not return to step 1 (cycle source)")
	}
	a.Desk.Click(next)
	a.Desk.Click(next)
	a.Desk.Click(wiz.Win.FindByAutomationID("wizFinish"))
	if !finished || wiz.IsOpen() {
		t.Fatal("Finish did not apply and close")
	}
}

func TestContextTabs(t *testing.T) {
	a := demoApp()
	a.RegisterContext(Context{Name: "image-selected"})
	pf := a.ContextTab("tabPicFormat", "Picture Format", "image-selected")
	pf.Group("grpPicStyles", "Picture Styles").Button("btnBorder", "Picture Border", nil)

	item := a.Win.FindByAutomationID("tabPicFormat")
	if item.OnScreen() {
		t.Fatal("contextual tab visible without context")
	}
	if err := a.EnterContext("image-selected"); err != nil {
		t.Fatal(err)
	}
	if !item.OnScreen() {
		t.Fatal("contextual tab hidden while context active")
	}
	a.Desk.Click(item)
	if a.ActiveTab() != "Picture Format" {
		t.Fatal("contextual tab did not activate")
	}
	if err := a.EnterContext("nope"); err == nil {
		t.Fatal("unknown context accepted")
	}
}

func TestRibbonCollapseCycle(t *testing.T) {
	a := demoApp()
	collapse, pin := a.AddRibbonCollapse()
	bold := a.Win.FindByAutomationID("btnBold")
	a.Desk.Click(collapse)
	if bold.OnScreen() || !pin.OnScreen() {
		t.Fatal("collapse did not hide ribbon body")
	}
	a.Desk.Click(pin)
	if !bold.OnScreen() || !collapse.OnScreen() {
		t.Fatal("pin did not restore ribbon body")
	}
}

func TestCommitEdit(t *testing.T) {
	a := demoApp()
	var committed string
	ed := a.Body().CommitEdit("edName", "Name Box", "", func(_ *App, v string) { committed = v })
	if err := a.Desk.Click(ed); err != nil {
		t.Fatal(err)
	}
	if err := a.Desk.TypeText("B12"); err != nil {
		t.Fatal(err)
	}
	if committed != "" {
		t.Fatal("commit ran before ENTER")
	}
	if err := a.Desk.PressKey("ENTER"); err != nil {
		t.Fatal(err)
	}
	if committed != "B12" {
		t.Fatalf("committed = %q", committed)
	}
}

func TestComboBoxPicksAndLargeEnum(t *testing.T) {
	a := demoApp()
	small := []string{"8", "9", "10", "11", "12"}
	var picked string
	cb := a.Body().ComboBox("cbSize", "Font Size", small, func(_ *App, v string) { picked = v })
	a.Desk.Click(cb) // expand
	it := cb.FindByName("11")
	if it == nil || !it.OnScreen() {
		t.Fatal("combo options not visible after expand")
	}
	a.Desk.Click(it)
	if picked != "11" {
		t.Fatalf("picked = %q", picked)
	}
	if it.OnScreen() {
		t.Fatal("options should collapse after pick")
	}
	if v := cb.Pattern(uia.ValuePattern).(uia.Valuer).Value(cb); v != "11" {
		t.Fatalf("combo value = %q", v)
	}

	big := make([]string, 100)
	for i := range big {
		big[i] = "Font " + string(rune('A'+i%26)) + string(rune('0'+i%10))
	}
	cb2 := a.Body().ComboBox("cbFont", "Font", big, nil)
	list := cb2.FindByAutomationID("cbFontList")
	if !list.LargeEnum() {
		t.Fatal("long option list not marked as large enumeration")
	}
}

func TestRadioGroup(t *testing.T) {
	a := demoApp()
	var idx int = -1
	p := a.Body().Pane("pOrient", "Orientation")
	btns := p.RadioGroup("rbO", []string{"Portrait", "Landscape"}, func(_ *App, i int) { idx = i })
	a.Desk.Click(btns[1])
	if idx != 1 {
		t.Fatalf("picked index = %d", idx)
	}
	si := btns[1].Pattern(uia.SelectionItemPattern).(uia.SelectionItem)
	if !si.IsSelected(btns[1]) || si.IsSelected(btns[0]) {
		t.Fatal("radio selection state wrong")
	}
}

func TestBlocklist(t *testing.T) {
	a := demoApp()
	acct := a.Body().Button("btnAccount", "Account", nil)
	a.Block(acct.ControlID())
	if !a.Blocked(acct) {
		t.Fatal("blocklist miss")
	}
	if a.BlocklistSize() != 1 {
		t.Fatal("blocklist size wrong")
	}
}

// ActiveTab returns the name of the currently active ribbon tab, or "".
func (a *App) ActiveTab() string {
	for _, t := range a.tabs {
		if t.panel.Visible() {
			return t.item.Name()
		}
	}
	return ""
}
