// Package shared provides ribbon assemblies used by more than one Office
// simulator: the large insert galleries (shapes, icons, symbols), the theme
// gallery, and the font controls. Keeping them identical across applications
// mirrors real Office, where these galleries are shared component libraries.
package shared

import (
	"sync"

	"repro/internal/appkit"
	"repro/internal/office/catalog"
	"repro/internal/uia"
)

// SymbolCount and IconCount size the two biggest insert galleries.
const (
	SymbolCount = 560
	IconCount   = 900
)

// symbols and icons name the two galleries' items, generated once per
// process; like every catalog list they are read-only.
var (
	symbols = sync.OnceValue(func() []string { return catalog.Symbols(SymbolCount) })
	icons   = sync.OnceValue(func() []string { return catalog.Icons(IconCount) })
)

// AddIllustrations builds the Illustrations ribbon group: Pictures, the
// shapes gallery, the icons gallery, and a chart dialog. onInsert receives
// ("picture"|"shape:NAME"|"icon:NAME"|"chart:NAME").
func AddIllustrations(a *appkit.App, tab appkit.Panel, idPrefix string, onInsert func(a *appkit.App, what string)) appkit.Panel {
	g := tab.Group(idPrefix+"Illustrations", "Illustrations")
	g.Button(idPrefix+"Pictures", "Pictures", func(app *appkit.App) { onInsert(app, "picture") })

	shapes := a.Gallery(idPrefix+"ShapesGal", "Shapes", catalog.ShapeNames(), 48,
		func(app *appkit.App, s string) { onInsert(app, "shape:"+s) })
	shapes.Body.MarkLargeEnum()
	g.MenuButton(idPrefix+"Shapes", "Shapes", shapes, nil)

	icons := a.Gallery(idPrefix+"IconsGal", "Icons", icons(), 60,
		func(app *appkit.App, s string) { onInsert(app, "icon:"+s) })
	icons.Body.MarkLargeEnum()
	g.MenuButton(idPrefix+"Icons", "Icons", icons, nil)

	chart := a.NewDialog(idPrefix+"ChartDlg", "Insert Chart")
	cp := chart.Panel()
	charts := cp.ChoiceList(idPrefix+"ChartList", "All Charts", catalog.ChartTypes)
	// A fresh dialog starts with no chart type selected: a pick does not
	// outlive the dialog, so whether OK inserts a chart (revealing the
	// contextual design tab) depends only on the picks made since it opened.
	chart.OnOpen = func(*appkit.App, any) { charts.Clear() }
	chart.AddOKCancel(func(app *appkit.App) {
		if chosen := charts.Chosen(); chosen != "" {
			onInsert(app, "chart:"+chosen)
		}
	})
	g.DialogButton(idPrefix+"Chart", "Chart", chart, nil)
	g.Button(idPrefix+"SmartArt", "SmartArt", nil)
	g.Button(idPrefix+"Screenshot", "Screenshot", nil)
	return g
}

// AddSymbols builds the Symbols ribbon group with the large symbol gallery
// and a More Symbols dialog.
func AddSymbols(a *appkit.App, tab appkit.Panel, idPrefix string, onInsert func(a *appkit.App, symbol string)) {
	g := tab.Group(idPrefix+"Symbols", "Symbols")
	eq := a.Gallery(idPrefix+"EquationGal", "Equation",
		[]string{"Area of Circle", "Binomial Theorem", "Expansion of a Sum",
			"Fourier Series", "Pythagorean Theorem", "Quadratic Formula",
			"Taylor Expansion", "Trig Identity 1", "Trig Identity 2"}, 9, nil)
	g.MenuButton(idPrefix+"Equation", "Equation", eq, nil)

	sym := a.Gallery(idPrefix+"SymbolGal", "Symbol", symbols(), 64,
		func(app *appkit.App, s string) {
			if onInsert != nil {
				onInsert(app, s)
			}
		})
	sym.Body.MarkLargeEnum()
	g.MenuButton(idPrefix+"Symbol", "Symbol", sym, nil)
}

// AddThemes builds the theme gallery button. onPick receives the theme name.
func AddThemes(a *appkit.App, panel appkit.Panel, idPrefix string, onPick func(a *appkit.App, theme string)) *appkit.Popup {
	gal := a.Gallery(idPrefix+"ThemesGal", "Themes", catalog.ThemeNames, 16, onPick)
	panel.MenuButton(idPrefix+"Themes", "Themes", gal, nil)
	return gal
}

// AddFontControls builds the font name and font size combo boxes.
func AddFontControls(p appkit.Panel, idPrefix string,
	onFont func(a *appkit.App, font string), onSize func(a *appkit.App, size string)) (font, size *uia.Element) {
	font = p.ComboBox(idPrefix+"FontName", "Font", catalog.Fonts(), onFont)
	font.SetDescription("Font family; pick a name to apply it to the selection")
	size = p.ComboBox(idPrefix+"FontSize", "Font Size", catalog.FontSizes, onSize)
	size.SetDescription("Font size in points")
	return font, size
}

// AddBordersMenu builds the border-style dropdown shared by Word tables and
// Excel cells.
func AddBordersMenu(a *appkit.App, p appkit.Panel, idPrefix string, onPick func(a *appkit.App, style string)) *appkit.Popup {
	m := a.NewMenu(idPrefix+"BordersMenu", "Borders")
	body := m.Panel()
	for _, b := range catalog.BorderStyles {
		b := b
		body.MenuItem("", b, func(app *appkit.App) { onPick(app, b) })
	}
	p.MenuButton(idPrefix+"Borders", "Borders", m, nil)
	return m
}

// AddBackstage builds a minimal File backstage: Save, Save As dialog, Print,
// Options dialog, and the blocked Account entry (a control that would jump
// to an external application; paper §4.1, access blocklist).
func AddBackstage(a *appkit.App, onSaveAs func(a *appkit.App, name string)) {
	file := a.Tab("tabFile", "File")

	saveAs := a.NewDialog("dlgSaveAs", "Save As")
	sp := saveAs.Panel()
	nameEd := sp.Edit("saveAsName", "File name", "", nil)
	sp.ComboBox("saveAsType", "Save as type",
		[]string{"Document (*.docx)", "PDF (*.pdf)", "Plain Text (*.txt)",
			"Web Page (*.html)", "OpenDocument (*.odt)"}, nil)
	saveAs.AddOKCancel(func(app *appkit.App) {
		if onSaveAs != nil {
			v := nameEd.Pattern(uia.ValuePattern).(uia.Valuer).Value(nameEd)
			onSaveAs(app, v)
		}
	})

	options := a.NewDialog("dlgOptions", "Options")
	op := options.Panel()
	for _, cat := range []string{"General", "Display", "Proofing", "Save",
		"Language", "Accessibility", "Advanced", "Customize Ribbon",
		"Quick Access Toolbar", "Add-ins", "Trust Center"} {
		op.ListItem("", cat, nil)
	}
	op.CheckBox("optAutoSave", "AutoSave files", func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})
	op.CheckBox("optMiniToolbar", "Show Mini Toolbar on selection", func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})
	options.AddOKCancel(nil)

	file.Button("btnSave", "Save", nil)
	file.DialogButton("btnSaveAs", "Save As", saveAs, nil)
	file.Button("btnPrint", "Print", nil)
	file.DialogButton("btnOptions", "Options", options, nil)
	account := file.Button("btnAccount", "Account", nil)
	account.SetDescription("Manage your account (opens a web browser)")
	a.Block(account.ControlID())
}
