package appkit_test

import (
	"testing"

	"repro/internal/appkit"
	"repro/internal/apps/filemgr"
	"repro/internal/apps/settings"
	"repro/internal/office/excel"
	"repro/internal/office/slides"
	"repro/internal/office/word"
	"repro/internal/uia"
)

// catalogApps builds the five evaluated applications, in catalog order.
var catalogApps = []struct {
	name  string
	build func() *appkit.App
}{
	{"Word", func() *appkit.App { return word.New().App }},
	{"Excel", func() *appkit.App { return excel.New().App }},
	{"PowerPoint", func() *appkit.App { return slides.New(12).App }},
	{"Settings", func() *appkit.App { return settings.New().App }},
	{"Files", func() *appkit.App { return filemgr.New().App }},
}

// TestExpandablesRegistered: SoftReset collapses only the registered
// ExpandCollapse controls, so for every catalog app the registry must hold
// exactly what a full walk of the main window and every popup template
// finds carrying the pattern. An expandable built outside Panel.ComboBox
// fails here instead of quietly staying expanded through SoftReset.
func TestExpandablesRegistered(t *testing.T) {
	for _, app := range catalogApps {
		name, a := app.name, app.build()
		a.MaterializeAll()
		walked := make(map[*uia.Element]bool)
		collect := func(root *uia.Element) {
			root.Walk(func(e *uia.Element) bool {
				if e.HasPattern(uia.ExpandCollapsePattern) {
					walked[e] = true
				}
				return true
			})
		}
		collect(a.Win)
		for _, p := range a.PopupTemplates() {
			collect(p.Win)
		}
		registered := make(map[*uia.Element]bool)
		for _, e := range a.Expandables() {
			if registered[e] {
				t.Errorf("%s: %s registered twice", name, e.ControlID())
			}
			registered[e] = true
			if !walked[e] {
				t.Errorf("%s: registered %s is in no window or popup template", name, e.ControlID())
			}
		}
		for e := range walked {
			if !registered[e] {
				t.Errorf("%s: %s carries ExpandCollapse but is not registered", name, e.ControlID())
			}
		}
		if len(walked) == 0 {
			t.Errorf("%s: no ExpandCollapse controls found", name)
		}
	}
}

// TestSoftResetCollapsesCombos: a combo left expanded (its option list on
// screen) is collapsed by SoftReset, so an instance's click history does
// not leak into the next exploration.
func TestSoftResetCollapsesCombos(t *testing.T) {
	a := appkit.New("Combo")
	home := a.Tab("tabHome", "Home")
	cb := home.Group("grpFont", "Font").ComboBox("cbFont", "Font", []string{"Arial", "Calibri"}, nil)
	dlg := a.NewDialog("dlgOpts", "Options")
	inDlg := dlg.Panel().ComboBox("cbUnits", "Units", []string{"cm", "in"}, nil)
	for _, e := range []*uia.Element{cb, inDlg} {
		if err := e.Pattern(uia.ExpandCollapsePattern).(uia.ExpandCollapser).Expand(e); err != nil {
			t.Fatal(err)
		}
	}
	a.SoftReset()
	for _, e := range []*uia.Element{cb, inDlg} {
		x := e.Pattern(uia.ExpandCollapsePattern).(uia.ExpandCollapser)
		if x.ExpandState(e) != uia.Collapsed {
			t.Errorf("%s still expanded after SoftReset", e.Name())
		}
		if e.Children()[0].Visible() {
			t.Errorf("%s option list still visible after SoftReset", e.Name())
		}
	}
}
