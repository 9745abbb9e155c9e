package word

import (
	"fmt"
	"strings"

	"repro/internal/appkit"
	"repro/internal/office/catalog"
	"repro/internal/office/shared"
	"repro/internal/uia"
)

// Color-picker bindings: the semantic target a shared color picker modifies.
// The same picker cells perform different functions depending on the opener
// path — the paper's canonical path-ambiguity example.
const (
	BindFontColor      = "font-color"
	BindUnderlineColor = "underline-color"
	BindHighlight      = "highlight"
	BindPageColor      = "page-color"
	BindShading        = "shading"
	BindTextOutline    = "text-outline"
	BindPictureBorder  = "picture-border"
)

// App is the simulated Word application.
type App struct {
	*appkit.App
	Doc *Document

	// PictureSelected mirrors the "image-selected" context; the Picture
	// Format tab is visible only while it is true.
	PictureSelected bool
	PictureBorder   string

	docEl   *uia.Element
	findBtn *uia.Element // the Find Next button that renames to "Go To"
	fontDlg *appkit.Popup
}

// ContextImageSelected is the name of the image-selection context.
const ContextImageSelected = "image-selected"

// defaultParas is the document New builds without paragraphs.
var defaultParas = []string{
	"Annual report overview for the fiscal year.",
	"Revenue grew moderately across all regions.",
	"Costs were dominated by infrastructure investment.",
	"Outlook remains cautiously optimistic.",
	"Appendix: methodology and data sources.",
}

// New assembles the Word simulator around the given initial paragraphs.
func New(paras ...string) *App {
	if len(paras) == 0 {
		paras = defaultParas
	}
	w := &App{App: appkit.New("Word"), Doc: NewDocument(paras...)}

	picker := w.ColorPicker("clrPicker", "Colors", w.applyColor)

	w.buildHome(picker)
	w.buildInsert()
	w.buildDesign(picker)
	w.buildLayout()
	w.buildReferences()
	w.buildReview()
	w.buildView()
	w.buildPictureFormat(picker)
	shared.AddBackstage(w.App, func(_ *appkit.App, name string) { w.Doc.Saved = name })
	// Collapsing the ribbon reshapes the whole UI; the modeling operator
	// blocklists it (paper §4.1) so the ripper never folds the ribbon
	// into a shared subtree behind the Pin button.
	collapse, _ := w.AddRibbonCollapse()
	w.Block(collapse.ControlID())
	w.buildBody()

	w.RegisterContext(appkit.Context{
		Name:  ContextImageSelected,
		Enter: func(*appkit.App) { uia.Store(w.Win, &w.PictureSelected, true) },
	})
	return w
}

// Reset puts the document model where New(paras...) would: the document
// and the picture selection with its border. The UI is the caller's to
// restore (a pooled instance rewinds its undo log).
func (w *App) Reset(paras ...string) {
	if len(paras) == 0 {
		paras = defaultParas
	}
	w.Doc.reset(paras)
	w.PictureSelected = false
	w.PictureBorder = ""
}

// applyColor routes a color pick to the bound property.
func (w *App) applyColor(a *appkit.App, color string) {
	switch a.Binding() {
	case BindFontColor:
		w.Doc.ApplyToSelection(func(p *Para) { p.FontColor = color })
	case BindUnderlineColor:
		w.Doc.ApplyToSelection(func(p *Para) { p.UnderlineColor = color; p.Underline = true })
	case BindHighlight:
		w.Doc.ApplyToSelection(func(p *Para) { p.Highlight = color })
	case BindShading:
		w.Doc.ApplyToSelection(func(p *Para) { p.Highlight = color })
	case BindPageColor:
		w.Doc.PageColor = color
	case BindTextOutline:
		w.Doc.ApplyToSelection(func(p *Para) { p.FontColor = "Outline " + color })
	case BindPictureBorder:
		w.PictureBorder = color
	}
}

func (w *App) buildHome(picker *appkit.Popup) {
	home := w.Tab("tabHome", "Home")

	clip := home.Group("grpClipboard", "Clipboard")
	clip.Button("btnPaste", "Paste", nil)
	clip.Button("btnCut", "Cut", nil)
	clip.Button("btnCopy", "Copy", nil)
	clip.Button("btnFormatPainter", "Format Painter", nil)

	font := home.Group("grpFont", "Font")
	shared.AddFontControls(font, "w",
		func(*appkit.App, string) {}, func(*appkit.App, string) {})
	fontCombo := font.El.FindByAutomationID("wFontName")
	fontCombo.OnClick(func(*uia.Element) {}) // combo behaviour already wired
	// Re-wire the pick handlers onto the document selection.
	wireComboToSelection(w, "wFontName", func(p *Para, v string) { p.Font = v })
	wireComboToSelection(w, "wFontSize", func(p *Para, v string) { p.Size = parseSize(v, p.Size) })

	font.ToggleButton("btnBold", "Bold",
		func(*appkit.App) bool { return w.Doc.AllSelectedSatisfy(func(p *Para) bool { return p.Bold }) },
		func(_ *appkit.App, on bool) { w.Doc.ApplyToSelection(func(p *Para) { p.Bold = on }) })
	font.ToggleButton("btnItalic", "Italic",
		func(*appkit.App) bool { return w.Doc.AllSelectedSatisfy(func(p *Para) bool { return p.Italic }) },
		func(_ *appkit.App, on bool) { w.Doc.ApplyToSelection(func(p *Para) { p.Italic = on }) })

	// Underline is a split button: direct toggle plus a style menu with an
	// Underline Color submenu — one of the three paths to the color picker.
	underMenu := w.NewMenu("mnuUnderline", "Underline Style")
	ub := underMenu.Panel()
	for _, s := range []string{"Single Underline", "Double Underline",
		"Thick Underline", "Dotted Underline", "Dashed Underline",
		"Wavy Underline", "No Underline"} {
		s := s
		ub.MenuItem("", s, func(*appkit.App) {
			w.Doc.ApplyToSelection(func(p *Para) { p.Underline = s != "No Underline" })
		})
	}
	ub.MenuButton("btnUnderlineColor", "Underline Color", picker,
		func(*appkit.App) any { return BindUnderlineColor })
	font.MenuButton("btnUnderline", "Underline", underMenu, nil)

	font.ToggleButton("btnStrikethrough", "Strikethrough",
		func(*appkit.App) bool { return w.Doc.AllSelectedSatisfy(func(p *Para) bool { return p.Strikethrough }) },
		func(_ *appkit.App, on bool) { w.Doc.ApplyToSelection(func(p *Para) { p.Strikethrough = on }) })
	font.ToggleButton("btnSubscript", "Subscript",
		func(*appkit.App) bool { return w.Doc.AllSelectedSatisfy(func(p *Para) bool { return p.Subscript }) },
		func(_ *appkit.App, on bool) { w.Doc.ApplyToSelection(func(p *Para) { p.Subscript = on }) })
	font.ToggleButton("btnSuperscript", "Superscript",
		func(*appkit.App) bool { return w.Doc.AllSelectedSatisfy(func(p *Para) bool { return p.Superscript }) },
		func(_ *appkit.App, on bool) { w.Doc.ApplyToSelection(func(p *Para) { p.Superscript = on }) })

	caseMenu := w.NewMenu("mnuCase", "Change Case")
	cb := caseMenu.Panel()
	for _, c := range []string{"Sentence case", "lowercase", "UPPERCASE",
		"Capitalize Each Word", "tOGGLE cASE"} {
		c := c
		cb.MenuItem("", c, func(*appkit.App) {
			w.Doc.ApplyToSelection(func(p *Para) { p.Text = changeCase(p.Text, c) })
			w.Doc.rebuildText()
		})
	}
	font.MenuButton("btnChangeCase", "Change Case", caseMenu, nil)
	font.Button("btnClearFormatting", "Clear All Formatting", func(*appkit.App) {
		w.Doc.ApplyToSelection(func(p *Para) {
			*p = Para{Text: p.Text, Font: "Calibri", Size: 11, Alignment: "Left",
				LineSpacing: 1.08, Style: "Normal", FontColor: "Automatic",
				UnderlineColor: "Automatic"}
		})
	})

	// Text Effects menu carries the Text Outline path to the picker.
	fx := w.NewMenu("mnuTextEffects", "Text Effects and Typography")
	fxp := fx.Panel()
	for _, e := range []string{"Shadow", "Reflection", "Glow", "Number Styles",
		"Ligatures", "Stylistic Sets"} {
		fxp.MenuItem("", e, nil)
	}
	fxp.MenuButton("btnTextOutline", "Text Outline", picker,
		func(*appkit.App) any { return BindTextOutline })
	font.MenuButton("btnTextEffects", "Text Effects", fx, nil)

	font.MenuButton("btnHighlight", "Text Highlight Color", picker,
		func(*appkit.App) any { return BindHighlight })
	fc := font.MenuButton("btnFontColor", "Font Color", picker,
		func(*appkit.App) any { return BindFontColor })
	fc.SetDescription("Change the color of the selected text")
	w.fontDlg = w.buildFontDialog(picker)
	font.DialogButton("btnFontDialog", "Font Settings", w.fontDlg, nil)

	par := home.Group("grpParagraph", "Paragraph")
	bullets := w.Gallery("galBullets", "Bullets",
		[]string{"Round Bullet", "Hollow Bullet", "Square Bullet",
			"Diamond Bullet", "Arrow Bullet", "Check Bullet", "None"}, 7,
		func(*appkit.App, string) {
			w.Doc.ApplyToSelection(func(p *Para) { p.ListKind = "Bullets" })
		})
	par.MenuButton("btnBullets", "Bullets", bullets, nil)
	numbering := w.Gallery("galNumbering", "Numbering",
		[]string{"1. 2. 3.", "1) 2) 3)", "I. II. III.", "A. B. C.",
			"a) b) c)", "i. ii. iii.", "None"}, 7,
		func(*appkit.App, string) {
			w.Doc.ApplyToSelection(func(p *Para) { p.ListKind = "Numbering" })
		})
	par.MenuButton("btnNumbering", "Numbering", numbering, nil)
	par.Button("btnDecreaseIndent", "Decrease Indent", nil)
	par.Button("btnIncreaseIndent", "Increase Indent", nil)

	for _, al := range []string{"Left", "Center", "Right", "Justify"} {
		al := al
		b := par.Button("btnAlign"+al, "Align "+al, func(*appkit.App) {
			w.Doc.ApplyToSelection(func(p *Para) { p.Alignment = al })
		})
		b.SetDescription("Align the selected paragraphs: " + al)
	}

	spacing := w.NewMenu("mnuLineSpacing", "Line and Paragraph Spacing")
	sp := spacing.Panel()
	for _, v := range []float64{1.0, 1.15, 1.5, 2.0, 2.5, 3.0} {
		v := v
		sp.MenuItem("", fmt.Sprintf("%.2f", v), func(*appkit.App) {
			w.Doc.ApplyToSelection(func(p *Para) { p.LineSpacing = v })
		})
	}
	sp.DialogButton("btnLineSpacingOptions", "Line Spacing Options",
		w.buildParagraphDialog(), nil)
	par.MenuButton("btnLineSpacing", "Line and Paragraph Spacing", spacing, nil)
	par.MenuButton("btnShading", "Shading", picker,
		func(*appkit.App) any { return BindShading })
	shared.AddBordersMenu(w.App, par, "w", func(*appkit.App, string) {})

	styles := home.Group("grpStyles", "Styles")
	styleGal := w.Gallery("galStyles", "Styles", catalog.WordStyles, 16,
		func(_ *appkit.App, s string) {
			w.Doc.ApplyToSelection(func(p *Para) { p.Style = s })
		})
	styles.MenuButton("btnStyles", "Styles", styleGal, nil)

	edit := home.Group("grpEditing", "Editing")
	edit.Button("btnFind", "Find", nil)
	edit.DialogButton("btnReplace", "Replace", w.buildFindReplace(), nil)
	selMenu := w.NewMenu("mnuSelect", "Select")
	sm := selMenu.Panel()
	sm.MenuItem("", "Select All", func(*appkit.App) {
		w.Doc.SelectParas(1, len(w.Doc.Paras))
	})
	sm.MenuItem("", "Select Objects", nil)
	sm.MenuItem("", "Selection Pane", nil)
	edit.MenuButton("btnSelect", "Select", selMenu, nil)
}

// buildFindReplace assembles the Find and Replace dialog, including the
// dynamic rename the paper's §6 uses to illustrate topology inaccuracy:
// typing text that starts with "+" into "Find what" renames the "Find Next"
// button to "Go To", which the offline model cannot capture.
func (w *App) buildFindReplace() *appkit.Popup {
	dlg := w.NewDialog("dlgFindReplace", "Find and Replace")
	p := dlg.Panel()
	fw := p.Edit("edFindWhat", "Find what", "", func(_ *appkit.App, v string) {
		if strings.HasPrefix(v, "+") {
			w.findBtn.SetName("Go To")
		} else {
			w.findBtn.SetName("Find Next")
		}
	})
	fw.SetDescription("Text to search for")
	rw := p.Edit("edReplaceWith", "Replace with", "", nil)

	p.Button("btnReplaceAll", "Replace All", func(*appkit.App) {
		w.Doc.ReplaceAll(appkit.ValueOf(fw), appkit.ValueOf(rw))
	})
	p.Button("btnReplaceOne", "Replace", func(*appkit.App) {
		findWhat, replaceWith := appkit.ValueOf(fw), appkit.ValueOf(rw)
		for _, para := range w.Doc.Paras {
			if strings.Contains(para.Text, findWhat) && findWhat != "" {
				para.Text = strings.Replace(para.Text, findWhat, replaceWith, 1)
				w.Doc.rebuildText()
				return
			}
		}
	})
	w.findBtn = p.NavButton("btnFindNext", "Find Next", nil)

	more := p.Pane("pnlMoreOptions", "Search Options")
	more.El.SetVisible(false)
	more.CheckBox("chkMatchCase", "Match case", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	more.CheckBox("chkWholeWords", "Find whole words only", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	more.CheckBox("chkWildcards", "Use wildcards", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	// The paper's §5.6 failure example: Format > Subscript inside Find and
	// Replace applies to the whole Edit field, not the selected text range.
	fmtMenu := w.NewMenu("mnuFRFormat", "Format")
	fmtMenu.Panel().MenuItem("frSubscript", "Subscript", nil)
	fmtMenu.Panel().MenuItem("frSuperscript", "Superscript", nil)
	// The Font dialog is reachable both from the ribbon's Font group and
	// from here: a second path into the same dialog (merge node).
	fmtMenu.Panel().DialogButton("btnFRFontDialog", "Font", w.fontDlg, nil)
	more.MenuButton("btnFRFormat", "Format", fmtMenu, nil)
	// More/Less reveal each other: a contained navigation cycle.
	appkit.AddDetailToggle(p, "btnFR", "More", "Less", more.El)
	dlg.AddOKCancel(nil)
	return dlg
}

func (w *App) buildFontDialog(picker *appkit.Popup) *appkit.Popup {
	dlg := w.NewDialog("dlgFont", "Font")
	p := dlg.Panel()
	p.ComboBox("dlgFontName", "Font", catalog.Fonts(), nil)
	p.ComboBox("dlgFontStyle", "Font style",
		[]string{"Regular", "Italic", "Bold", "Bold Italic"}, nil)
	p.ComboBox("dlgFontSize", "Size", catalog.FontSizes, nil)
	p.MenuButton("dlgFontColor", "Font color", picker,
		func(*appkit.App) any { return BindFontColor })
	p.ComboBox("dlgUnderlineStyle", "Underline style",
		[]string{"(none)", "Single", "Double", "Thick", "Dotted"}, nil)
	for _, fx := range []string{"Strikethrough", "Double strikethrough",
		"Superscript", "Subscript", "Small caps", "All caps", "Hidden"} {
		p.CheckBox("", fx, func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	}
	dlg.AddOKCancel(nil)
	return dlg
}

func (w *App) buildParagraphDialog() *appkit.Popup {
	dlg := w.NewDialog("dlgParagraph", "Paragraph")
	p := dlg.Panel()
	p.ComboBox("dlgParaAlignment", "Alignment",
		[]string{"Left", "Centered", "Right", "Justified"}, nil)
	p.ComboBox("dlgParaOutline", "Outline level",
		[]string{"Body Text", "Level 1", "Level 2", "Level 3"}, nil)
	p.Spinner("dlgIndentLeft", "Indentation Left", 0, 10, 0, nil)
	p.Spinner("dlgIndentRight", "Indentation Right", 0, 10, 0, nil)
	p.Spinner("dlgSpaceBefore", "Spacing Before", 0, 100, 0, nil)
	p.Spinner("dlgSpaceAfter", "Spacing After", 0, 100, 8, nil)
	spacing := p.ComboBox("dlgLineSpacing", "Line spacing",
		[]string{"Single", "1.5 lines", "Double", "At least", "Exactly", "Multiple"}, nil)
	dlg.AddOKCancel(func(*appkit.App) {
		// The choices without a fixed multiple keep Word's default.
		lineVal := 1.08
		switch appkit.ValueOf(spacing) {
		case "Single":
			lineVal = 1.0
		case "1.5 lines":
			lineVal = 1.5
		case "Double":
			lineVal = 2.0
		}
		w.Doc.ApplyToSelection(func(pp *Para) { pp.LineSpacing = lineVal })
	})
	return dlg
}

func (w *App) buildInsert() {
	ins := w.Tab("tabInsert", "Insert")

	pages := ins.Group("grpPages", "Pages")
	cover := w.Gallery("galCoverPage", "Cover Page",
		[]string{"Austin", "Banded", "Facet", "Filigree", "Grid", "Integral",
			"Ion (Dark)", "Ion (Light)", "Motion", "Retrospect", "Semaphore",
			"Sideline"}, 12, nil)
	pages.MenuButton("btnCoverPage", "Cover Page", cover, nil)
	pages.Button("btnBlankPage", "Blank Page", nil)
	pages.Button("btnPageBreak", "Page Break", nil)

	tables := ins.Group("grpTables", "Tables")
	tblMenu := w.NewMenu("mnuTable", "Table")
	tb := tblMenu.Panel()
	grid := tb.Pane("pnlTableGrid", "Insert Table Grid")
	for r := 1; r <= 8; r++ {
		for c := 1; c <= 10; c++ {
			r, c := r, c
			cell := grid.MenuItem("", fmt.Sprintf("%dx%d Table", c, r), func(*appkit.App) {
				w.Doc.InsertTable(r, c)
			})
			cell.SetDescription(fmt.Sprintf("Insert a table with %d columns and %d rows", c, r))
		}
	}
	insTblDlg := w.NewDialog("dlgInsertTable", "Insert Table")
	ip := insTblDlg.Panel()
	cols := ip.Spinner("spnTableCols", "Number of columns", 1, 63, 5, nil)
	rows := ip.Spinner("spnTableRows", "Number of rows", 1, 200, 2, nil)
	insTblDlg.AddOKCancel(func(*appkit.App) {
		w.Doc.InsertTable(int(appkit.RangeValueOf(rows)), int(appkit.RangeValueOf(cols)))
	})
	tb.DialogButton("btnInsertTableDlg", "Insert Table", insTblDlg, nil)
	tb.MenuItem("btnDrawTable", "Draw Table", nil)
	tables.MenuButton("btnTable", "Table", tblMenu, nil)

	shared.AddIllustrations(w.App, ins, "w", func(_ *appkit.App, what string) {
		w.Doc.Inserted = append(w.Doc.Inserted, what)
		if what == "picture" {
			_ = w.EnterContext(ContextImageSelected)
		}
	})

	hf := ins.Group("grpHeaderFooter", "Header & Footer")
	hdr := w.Gallery("galHeader", "Header",
		[]string{"Blank Header", "Blank (Three Columns)", "Austin Header",
			"Banded Header", "Facet (Even)", "Facet (Odd)", "Filigree Header",
			"Grid Header", "Integral Header", "Ion (Dark) Header",
			"Ion (Light) Header", "Motion Header"}, 12,
		func(_ *appkit.App, h string) { w.Doc.Header = h })
	hf.MenuButton("btnHeader", "Header", hdr, nil)
	ftr := w.Gallery("galFooter", "Footer",
		[]string{"Blank Footer", "Blank (Three Columns) Footer",
			"Austin Footer", "Banded Footer", "Facet (Even) Footer",
			"Facet (Odd) Footer", "Filigree Footer", "Grid Footer",
			"Integral Footer", "Ion (Dark) Footer", "Ion (Light) Footer",
			"Motion Footer"}, 12,
		func(_ *appkit.App, f string) { w.Doc.Footer = f })
	hf.MenuButton("btnFooter", "Footer", ftr, nil)
	pn := w.Gallery("galPageNumber", "Page Number", catalog.PageNumberFormats(), 15,
		func(_ *appkit.App, f string) { w.Doc.PageNumbers = f })
	pnMenu := pn // gallery already paginates positions
	hf.MenuButton("btnPageNumber", "Page Number", pnMenu, nil)

	text := ins.Group("grpText", "Text")
	tbx := w.Gallery("galTextBox", "Text Box",
		[]string{"Simple Text Box", "Austin Quote", "Austin Sidebar",
			"Banded Quote", "Banded Sidebar", "Facet Quote", "Facet Sidebar",
			"Filigree Quote", "Filigree Sidebar", "Grid Quote"}, 10,
		func(_ *appkit.App, s string) { w.Doc.Inserted = append(w.Doc.Inserted, "textbox:"+s) })
	text.MenuButton("btnTextBox", "Text Box", tbx, nil)

	qp := w.NewMenu("mnuQuickParts", "Quick Parts")
	qpp := qp.Panel()
	for _, at := range []string{"Author Name Block", "Confidential Notice",
		"Created Date Stamp", "Disclaimer", "Draft Stamp", "File Path Block",
		"Greeting Line", "Last Saved Stamp", "Page X of Y", "Reviewed Stamp",
		"Signature Block", "Urgent Notice"} {
		qpp.MenuItem("", "AutoText: "+at, nil)
	}
	for _, dp := range []string{"Abstract", "Author", "Category", "Comments",
		"Company", "Company Address", "Company E-mail", "Company Fax",
		"Company Phone", "Keywords", "Manager", "Publish Date", "Status",
		"Subject", "Title"} {
		qpp.MenuItem("", "Document Property: "+dp, nil)
	}
	fieldDlg := w.NewDialog("dlgField", "Field")
	fp := fieldDlg.Panel()
	fieldList := fp.List("lstFieldNames", "Field names")
	fieldList.El.MarkLargeEnum()
	for _, f := range []string{"AddressBlock", "Advance", "Ask", "Author",
		"AutoNum", "AutoNumLgl", "AutoNumOut", "AutoText", "AutoTextList",
		"BarCode", "Bibliography", "BidiOutline", "Citation", "Comments",
		"Compare", "CreateDate", "Database", "Date", "DocProperty",
		"DocVariable", "EditTime", "Embed", "Eq", "FileName", "FileSize",
		"Fill-in", "GoToButton", "GreetingLine", "Hyperlink", "If",
		"IncludePicture", "IncludeText", "Index", "Info", "Keywords",
		"LastSavedBy", "Link", "ListNum", "MacroButton", "MergeField",
		"MergeRec", "MergeSeq", "Next", "NextIf", "NoteRef", "NumChars",
		"NumPages", "NumWords", "Page", "PageRef", "Print", "PrintDate",
		"Private", "Quote", "RD", "Ref", "RevNum", "SaveDate", "Section",
		"SectionPages", "Seq", "Set", "SkipIf", "StyleRef", "Subject",
		"Symbol", "TA", "TC", "Template", "Time", "Title", "TOA", "TOC",
		"UserAddress", "UserInitials", "UserName", "XE"} {
		fieldList.ListItem("", f, nil)
	}
	fieldDlg.AddOKCancel(nil)
	qpp.DialogButton("btnFieldDialog", "Field", fieldDlg, nil)
	text.MenuButton("btnQuickParts", "Quick Parts", qp, nil)
	wa := w.Gallery("galWordArt", "WordArt", catalog.WordArtStyles(), 10,
		func(_ *appkit.App, s string) { w.Doc.Inserted = append(w.Doc.Inserted, "wordart:"+s) })
	text.MenuButton("btnWordArt", "WordArt", wa, nil)
	text.Button("btnDropCap", "Drop Cap", nil)
	text.Button("btnDateTime", "Date & Time", nil)
	text.Button("btnObject", "Object", nil)

	shared.AddSymbols(w.App, ins, "w", func(_ *appkit.App, s string) {
		w.Doc.Inserted = append(w.Doc.Inserted, "symbol:"+s)
	})
}

func (w *App) buildDesign(picker *appkit.Popup) {
	design := w.Tab("tabDesign", "Design")
	df := design.Group("grpDocFormatting", "Document Formatting")
	shared.AddThemes(w.App, df, "w", func(_ *appkit.App, th string) { w.Doc.Theme = th })
	styleSet := w.Gallery("galStyleSets", "Style Sets",
		[]string{"Default", "Basic (Elegant)", "Basic (Simple)",
			"Basic (Stylish)", "Casual", "Centered", "Lines (Distinctive)",
			"Lines (Simple)", "Lines (Stylish)", "Minimalist", "Shaded",
			"Word 2013"}, 12, nil)
	df.MenuButton("btnStyleSet", "Style Set", styleSet, nil)
	colorsMenu := w.NewMenu("mnuThemeColors", "Theme Colors")
	for _, c := range []string{"Office", "Grayscale", "Blue Warm", "Blue",
		"Blue II", "Blue Green", "Green", "Green Yellow", "Yellow",
		"Yellow Orange", "Orange", "Orange Red", "Red Orange", "Red",
		"Red Violet", "Violet", "Violet II", "Median", "Paper", "Marquee"} {
		colorsMenu.Panel().MenuItem("", c, nil)
	}
	df.MenuButton("btnThemeColorSet", "Colors", colorsMenu, nil)
	fontsMenu := w.NewMenu("mnuThemeFonts", "Theme Fonts")
	for _, f := range []string{"Office", "Calibri", "Arial", "Corbel",
		"Candara", "Franklin Gothic", "Century Gothic", "Garamond",
		"Georgia", "Cambria", "Consolas", "Constantia", "Trebuchet MS",
		"TW Cen MT", "Verdana"} {
		fontsMenu.Panel().MenuItem("", f, nil)
	}
	df.MenuButton("btnThemeFontSet", "Fonts", fontsMenu, nil)

	bg := design.Group("grpPageBackground", "Page Background")
	wm := w.Gallery("galWatermark", "Watermark",
		[]string{"Confidential 1", "Confidential 2", "Do Not Copy 1",
			"Do Not Copy 2", "Draft 1", "Draft 2", "Sample 1", "Sample 2",
			"ASAP 1", "ASAP 2", "Urgent 1", "Urgent 2"}, 12,
		func(_ *appkit.App, s string) { w.Doc.Watermark = s })
	bg.MenuButton("btnWatermark", "Watermark", wm, nil)
	pc := bg.MenuButton("btnPageColor", "Page Color", picker,
		func(*appkit.App) any { return BindPageColor })
	pc.SetDescription("Choose a color for the background of the page")
	borders := w.NewDialog("dlgPageBorders", "Borders and Shading")
	bp := borders.Panel()
	bp.ComboBox("dlgBorderSetting", "Setting",
		[]string{"None", "Box", "Shadow", "3-D", "Custom"},
		func(_ *appkit.App, v string) { w.Doc.PageBorder = v })
	bp.ComboBox("dlgBorderStyle", "Style",
		[]string{"Solid", "Dotted", "Dashed", "Double", "Wavy"}, nil)
	borders.AddOKCancel(nil)
	bg.DialogButton("btnPageBorders", "Page Borders", borders, nil)
}

func (w *App) buildLayout() {
	layout := w.Tab("tabLayout", "Layout")
	ps := layout.Group("grpPageSetup", "Page Setup")
	margins := w.Gallery("galMargins", "Margins",
		[]string{"Normal", "Narrow", "Moderate", "Wide", "Mirrored",
			"Office 2003 Default"}, 6,
		func(_ *appkit.App, m string) { w.Doc.Margins = m })
	ps.MenuButton("btnMargins", "Margins", margins, nil)

	orient := w.NewMenu("mnuOrientation", "Orientation")
	for _, o := range []string{"Portrait", "Landscape"} {
		o := o
		it := orient.Panel().MenuItem("", o, func(*appkit.App) { w.Doc.Orientation = o })
		it.SetDescription("Set the page orientation to " + o)
	}
	ps.MenuButton("btnOrientation", "Orientation", orient, nil)

	size := w.Gallery("galPaperSize", "Size",
		[]string{"Letter", "Legal", "Statement", "Executive", "A3", "A4",
			"A5", "B4", "B5", "Tabloid"}, 10,
		func(_ *appkit.App, s string) { w.Doc.PaperSize = s })
	ps.MenuButton("btnSize", "Size", size, nil)

	colMenu := w.NewMenu("mnuColumns", "Columns")
	for i, c := range []string{"One", "Two", "Three", "Left", "Right"} {
		n := i + 1
		if n > 3 {
			n = 2
		}
		nn := n
		colMenu.Panel().MenuItem("", c, func(*appkit.App) { w.Doc.Columns = nn })
	}
	ps.MenuButton("btnColumns", "Columns", colMenu, nil)

	breaks := w.NewMenu("mnuBreaks", "Breaks")
	for _, b := range []string{"Page", "Column", "Text Wrapping",
		"Next Page Section", "Continuous Section", "Even Page Section",
		"Odd Page Section"} {
		breaks.Panel().MenuItem("", b+" Break", nil)
	}
	ps.MenuButton("btnBreaks", "Breaks", breaks, nil)

	pageSetup := w.NewDialog("dlgPageSetup", "Page Setup")
	pp := pageSetup.Panel()
	pp.Spinner("spnMarginTop", "Top margin", 0, 5, 1, nil)
	pp.Spinner("spnMarginBottom", "Bottom margin", 0, 5, 1, nil)
	pp.Spinner("spnMarginLeft", "Left margin", 0, 5, 1, nil)
	pp.Spinner("spnMarginRight", "Right margin", 0, 5, 1, nil)
	pp.RadioGroup("rbOrient", []string{"Portrait", "Landscape"},
		func(_ *appkit.App, i int) {
			w.Doc.Orientation = []string{"Portrait", "Landscape"}[i]
		})
	pageSetup.AddOKCancel(nil)
	ps.DialogButton("btnPageSetupDialog", "Page Setup Settings", pageSetup, nil)

	arr := layout.Group("grpArrange", "Arrange")
	pos := w.Gallery("galPosition", "Position",
		[]string{"In Line with Text", "Top Left", "Top Center", "Top Right",
			"Middle Left", "Middle Center", "Middle Right", "Bottom Left",
			"Bottom Center", "Bottom Right"}, 10, nil)
	arr.MenuButton("btnPosition", "Position", pos, nil)
	wrap := w.NewMenu("mnuWrapText", "Wrap Text")
	for _, wt := range []string{"In Line with Text", "Square", "Tight",
		"Through", "Top and Bottom", "Behind Text", "In Front of Text"} {
		wrap.Panel().MenuItem("", wt, nil)
	}
	arr.MenuButton("btnWrapText", "Wrap Text", wrap, nil)
	arr.Button("btnBringForward", "Bring Forward", nil)
	arr.Button("btnSendBackward", "Send Backward", nil)
	alignMenu := w.NewMenu("mnuAlignObjects", "Align Objects")
	for _, al := range []string{"Align Left", "Align Center", "Align Right",
		"Align Top", "Align Middle", "Align Bottom",
		"Distribute Horizontally", "Distribute Vertically",
		"Use Alignment Guides", "Grid Settings"} {
		alignMenu.Panel().MenuItem("", al, nil)
	}
	arr.MenuButton("btnAlignObjects", "Align", alignMenu, nil)
	arr.Button("btnGroupObjects", "Group", nil)
	rot := w.NewMenu("mnuRotate", "Rotate")
	for _, r := range []string{"Rotate Right 90°", "Rotate Left 90°",
		"Flip Vertical", "Flip Horizontal"} {
		rot.Panel().MenuItem("", r, nil)
	}
	arr.MenuButton("btnRotate", "Rotate", rot, nil)
}

func (w *App) buildReferences() {
	ref := w.Tab("tabReferences", "References")
	toc := ref.Group("grpTOC", "Table of Contents")
	tocGal := w.Gallery("galTOC", "Table of Contents",
		[]string{"Automatic Table 1", "Automatic Table 2", "Manual Table"}, 3, nil)
	toc.MenuButton("btnTOC", "Table of Contents", tocGal, nil)
	toc.Button("btnUpdateTOC", "Update Table", nil)

	fn := ref.Group("grpFootnotes", "Footnotes")
	fn.Button("btnInsertFootnote", "Insert Footnote", nil)
	fn.Button("btnInsertEndnote", "Insert Endnote", nil)
	fn.Button("btnNextFootnote", "Next Footnote", nil)
	fn.Button("btnShowNotes", "Show Notes", nil)

	cit := ref.Group("grpCitations", "Citations & Bibliography")
	cit.Button("btnInsertCitation", "Insert Citation", nil)
	cit.ComboBox("cbCitationStyle", "Style",
		[]string{"APA", "Chicago", "GB7714", "GOST - Name Sort", "Harvard",
			"IEEE", "ISO 690", "MLA", "SIST02", "Turabian"}, nil)
	cit.Button("btnBibliography", "Bibliography", nil)

	cap := ref.Group("grpCaptions", "Captions")
	cap.Button("btnInsertCaption", "Insert Caption", nil)
	cap.Button("btnInsertTableOfFigures", "Insert Table of Figures", nil)
	cap.Button("btnCrossReference", "Cross-reference", nil)

	idx := ref.Group("grpIndex", "Index")
	idx.Button("btnMarkEntry", "Mark Entry", nil)
	idx.Button("btnInsertIndex", "Insert Index", nil)
}

func (w *App) buildReview() {
	rev := w.Tab("tabReview", "Review")
	proof := rev.Group("grpProofing", "Proofing")
	proof.Button("btnSpelling", "Spelling & Grammar", nil)
	proof.Button("btnThesaurus", "Thesaurus", nil)
	wc := w.NewDialog("dlgWordCount", "Word Count")
	wc.Panel().Label("Statistics")
	wc.AddOKCancel(nil)
	proof.DialogButton("btnWordCount", "Word Count", wc, nil)

	lang := rev.Group("grpLanguage", "Language")
	langDlg := w.NewDialog("dlgLanguage", "Language")
	lp := langDlg.Panel()
	langList := lp.List("lstLanguages", "Mark selected text as")
	langList.El.MarkLargeEnum()
	for _, l := range catalog.Languages() {
		l := l
		langList.ListItem("", l, func(*appkit.App) { w.Doc.Language = l })
	}
	langDlg.AddOKCancel(nil)
	lang.DialogButton("btnSetLanguage", "Set Proofing Language", langDlg, nil)
	lang.Button("btnTranslate", "Translate", nil)

	comments := rev.Group("grpComments", "Comments")
	comments.Button("btnNewComment", "New Comment", nil)
	comments.Button("btnDeleteComment", "Delete Comment", nil)
	comments.Button("btnPreviousComment", "Previous Comment", nil)
	comments.Button("btnNextComment", "Next Comment", nil)

	track := rev.Group("grpTracking", "Tracking")
	track.ToggleButton("btnTrackChanges", "Track Changes",
		func(*appkit.App) bool { return w.Doc.TrackChanges },
		func(_ *appkit.App, on bool) { w.Doc.TrackChanges = on })
	track.ComboBox("cbMarkup", "Display for Review",
		[]string{"Simple Markup", "All Markup", "No Markup", "Original"}, nil)

	changes := rev.Group("grpChanges", "Changes")
	changes.Button("btnAcceptChange", "Accept", nil)
	changes.Button("btnRejectChange", "Reject", nil)
	changes.Button("btnPreviousChange", "Previous", nil)
	changes.Button("btnNextChange", "Next Change", nil)
}

func (w *App) buildView() {
	view := w.Tab("tabView", "View")
	views := view.Group("grpViews", "Views")
	for _, v := range []string{"Read Mode", "Print Layout", "Web Layout",
		"Outline", "Draft"} {
		views.Button("btnView"+strings.ReplaceAll(v, " ", ""), v, nil)
	}
	show := view.Group("grpShow", "Show")
	show.CheckBox("chkRuler", "Ruler", func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})
	show.CheckBox("chkGridlines", "Gridlines", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	show.CheckBox("chkNavPane", "Navigation Pane", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})

	zoom := view.Group("grpZoom", "Zoom")
	zoomDlg := w.NewDialog("dlgZoom", "Zoom")
	zoomDlg.Panel().RadioGroup("rbZoom",
		[]string{"200%", "100%", "75%", "Page width", "Text width",
			"Whole page", "Many pages"}, nil)
	zoomDlg.AddOKCancel(nil)
	zoom.DialogButton("btnZoom", "Zoom", zoomDlg, nil)
	zoom.Button("btnZoom100", "100%", nil)
	zoom.Button("btnOnePage", "One Page", nil)
	zoom.Button("btnMultiplePages", "Multiple Pages", nil)
	zoom.Button("btnPageWidth", "Page Width", nil)

	win := view.Group("grpWindow", "Window")
	win.Button("btnNewWindow", "New Window", nil)
	win.Button("btnArrangeAll", "Arrange All", nil)
	win.Button("btnSplitWindow", "Split", nil)
	macros := view.Group("grpMacros", "Macros")
	macros.Button("btnViewMacros", "View Macros", nil)
}

// buildPictureFormat assembles the contextual Picture Format tab, visible
// only while an image is selected (paper §4.1, context-aware exploration).
func (w *App) buildPictureFormat(picker *appkit.Popup) {
	pf := w.ContextTab("tabPictureFormat", "Picture Format", ContextImageSelected)
	adjust := pf.Group("grpPicAdjust", "Adjust")
	adjust.Button("btnRemoveBackground", "Remove Background", nil)
	adjust.Button("btnCorrections", "Corrections", nil)
	adjust.Button("btnPicColor", "Color", nil)
	adjust.Button("btnArtisticEffects", "Artistic Effects", nil)

	styles := pf.Group("grpPicStyles", "Picture Styles")
	gal := w.Gallery("galPicStyles", "Picture Styles",
		[]string{"Simple Frame, White", "Beveled Matte, White",
			"Metal Frame", "Drop Shadow Rectangle", "Reflected Rounded",
			"Soft Edge Rectangle", "Double Frame, Black", "Thick Matte, Black",
			"Simple Frame, Black", "Beveled Oval, Black", "Compound Frame",
			"Moderate Frame, White", "Center Shadow Rectangle",
			"Rounded Diagonal Corner", "Snip Diagonal Corner",
			"Moderate Frame, Black", "Rotated, White", "Perspective Shadow",
			"Relaxed Perspective", "Soft Edge Oval", "Bevel Rectangle",
			"Bevel Perspective", "Reflected Bevel, Black",
			"Reflected Bevel, White", "Metal Rounded Rectangle", "Metal Oval",
			"Bevel Perspective Left", "Reflected Perspective Right"}, 14,
		func(*appkit.App, string) {})
	styles.MenuButton("btnPicStylesGallery", "Picture Styles Gallery", gal, nil)
	pb := styles.MenuButton("btnPictureBorder", "Picture Border", picker,
		func(*appkit.App) any { return BindPictureBorder })
	pb.SetDescription("Choose the outline color for the selected picture")
	fx := w.NewMenu("mnuPicEffects", "Picture Effects")
	for _, e := range []string{"Preset", "Shadow", "Reflection", "Glow",
		"Soft Edges", "Bevel", "3-D Rotation"} {
		fx.Panel().MenuItem("", e, nil)
	}
	styles.MenuButton("btnPictureEffects", "Picture Effects", fx, nil)

	size := pf.Group("grpPicSize", "Size")
	size.Button("btnCrop", "Crop", nil)
	size.Spinner("spnPicHeight", "Shape Height", 0.1, 30, 3, nil)
	size.Spinner("spnPicWidth", "Shape Width", 0.1, 30, 4, nil)
}

// buildBody attaches the document surface, its scrollbar, and the status
// bar to the main window.
func (w *App) buildBody() {
	body := w.Window().Pane("pnlDocArea", "Document Area")
	doc := body.Document("docBody", "Document", w.Doc.TextPattern())
	doc.SetDescription("The document body text")
	w.docEl = doc
	w.Doc.owner = doc
	body.VScrollBar("sbDoc", "Vertical Scroll Bar", nil)
	status := w.Window().Pane("pnlStatusBar", "Status Bar")
	status.Label("Page 1 of 1")
	status.Label("Words: 120")
}

func wireComboToSelection(w *App, autoID string, apply func(p *Para, v string)) {
	cb := w.Win.FindByAutomationID(autoID)
	if cb == nil {
		return
	}
	list := cb.FindByAutomationID(autoID + "List")
	if list == nil {
		return
	}
	w.EachItem(list, func(item *uia.Element) {
		item.OnClick(func(*uia.Element) {
			w.Doc.ApplyToSelection(func(p *Para) { apply(p, item.Name()) })
		})
	})
}

func parseSize(v string, def float64) float64 {
	var f float64
	if _, err := fmt.Sscanf(v, "%f", &f); err != nil {
		return def
	}
	return f
}

func changeCase(s, mode string) string {
	switch mode {
	case "lowercase":
		return strings.ToLower(s)
	case "UPPERCASE":
		return strings.ToUpper(s)
	case "Capitalize Each Word":
		return strings.Title(s) //nolint:staticcheck // adequate for the simulator
	case "Sentence case":
		if s == "" {
			return s
		}
		return strings.ToUpper(s[:1]) + strings.ToLower(s[1:])
	default:
		return s
	}
}
