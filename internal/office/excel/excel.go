package excel

import (
	"fmt"
	"strings"

	"repro/internal/appkit"
	"repro/internal/office/catalog"
	"repro/internal/office/shared"
	"repro/internal/uia"
)

// Color-picker bindings.
const (
	BindFontColor = "font-color"
	BindFillColor = "fill-color"
	BindTabColor  = "tab-color"
)

// ContextChartSelected is the chart-selection context (reveals the Chart
// Design contextual tab).
const ContextChartSelected = "chart-selected"

// App is the simulated Excel application.
type App struct {
	*appkit.App
	Sheet *Sheet

	gridEl  *uia.Element
	nameBox *uia.Element
	// cells holds the DataItems by 1-based row and column; row 0 and
	// column 0 stay nil.
	cells   [GridRows + 1][GridCols + 1]*uia.Element
	viewTop int // first visible data row (1-based)
	sortDlg *appkit.Popup
}

// New assembles the Excel simulator. seed rows are written into the sheet
// before the UI is built (row-major, starting at A1).
func New(rows ...[]string) *App {
	x := &App{App: appkit.New("Excel"), Sheet: seededSheet(rows), viewTop: 1}
	x.Sheet.owner = x.Win

	picker := x.ColorPicker("clrPicker", "Colors", x.applyColor)
	x.buildHome(picker)
	x.buildInsert()
	x.buildPageLayout()
	x.buildFormulas()
	x.buildData()
	x.buildReview()
	x.buildView()
	shared.AddBackstage(x.App, func(_ *appkit.App, name string) { x.Sheet.Saved = name })
	// See word.New: ribbon collapse is operator-blocklisted for modeling.
	collapse, _ := x.AddRibbonCollapse()
	x.Block(collapse.ControlID())
	x.buildGrid()

	x.RegisterContext(appkit.Context{Name: ContextChartSelected})
	x.buildChartDesign()
	return x
}

// defaultRows seed the sheet New builds without rows.
var defaultRows = [][]string{
	{"Region", "Sales", "Cost"},
	{"North", "120", "80"},
	{"South", "95", "60"},
	{"East", "143", "97"},
	{"West", "88", "71"},
	{"Central", "131", "90"},
}

// seededSheet returns a new sheet with rows written from A1, row-major
// (defaultRows when there are none).
func seededSheet(rows [][]string) *Sheet {
	if len(rows) == 0 {
		rows = defaultRows
	}
	s := NewSheet()
	for r, row := range rows {
		for c, v := range row {
			s.SetValue(Ref(r+1, c+1), v)
		}
	}
	return s
}

// Reset puts the sheet model where New(rows...) would, with the viewport
// at the top. The UI is the caller's to restore (a pooled instance rewinds
// its undo log).
func (x *App) Reset(rows ...[]string) {
	x.Sheet = seededSheet(rows)
	x.Sheet.owner = x.Win
	x.viewTop = 1
	x.applyViewport()
}

func (x *App) applyColor(a *appkit.App, color string) {
	switch a.Binding() {
	case BindFontColor:
		x.Sheet.EachSelected(func(_ string, c *Cell) { c.FontColor = color })
	case BindFillColor:
		x.Sheet.EachSelected(func(_ string, c *Cell) { c.Fill = color })
	case BindTabColor:
		// sheet tab color; cosmetic
	}
}

func (x *App) buildHome(picker *appkit.Popup) {
	home := x.Tab("tabHome", "Home")

	clip := home.Group("grpClipboard", "Clipboard")
	clip.Button("btnPaste", "Paste", nil)
	clip.Button("btnCut", "Cut", nil)
	clip.Button("btnCopy", "Copy", nil)
	clip.Button("btnFormatPainter", "Format Painter", nil)

	font := home.Group("grpFont", "Font")
	shared.AddFontControls(font, "x", nil, nil)
	font.ToggleButton("btnBold", "Bold",
		func(*appkit.App) bool { return false },
		func(_ *appkit.App, on bool) { x.Sheet.EachSelected(func(_ string, c *Cell) { c.Bold = on }) })
	font.ToggleButton("btnItalic", "Italic", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	font.ToggleButton("btnUnderline", "Underline", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	shared.AddBordersMenu(x.App, font, "x", func(*appkit.App, string) {})
	fill := font.MenuButton("btnFillColor", "Fill Color", picker,
		func(*appkit.App) any { return BindFillColor })
	fill.SetDescription("Color the background of the selected cells")
	font.MenuButton("btnFontColor", "Font Color", picker,
		func(*appkit.App) any { return BindFontColor })

	align := home.Group("grpAlignment", "Alignment")
	for _, a := range []string{"Top Align", "Middle Align", "Bottom Align",
		"Align Left", "Center", "Align Right"} {
		align.Button("btnAlign"+strings.ReplaceAll(a, " ", ""), a, nil)
	}
	align.ToggleButton("btnWrapText", "Wrap Text",
		func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	mergeMenu := x.NewMenu("mnuMerge", "Merge & Center")
	for _, m := range []string{"Merge & Center", "Merge Across", "Merge Cells",
		"Unmerge Cells"} {
		mergeMenu.Panel().MenuItem("", m, nil)
	}
	align.MenuButton("btnMergeCenter", "Merge & Center", mergeMenu, nil)

	num := home.Group("grpNumber", "Number")
	nf := num.ComboBox("cbNumberFormat", "Number Format", catalog.NumberFormats,
		func(_ *appkit.App, v string) {
			x.Sheet.EachSelected(func(_ string, c *Cell) { c.Format = v })
		})
	nf.SetDescription("Number format applied to the selected cells")
	num.Button("btnPercentStyle", "Percent Style", func(*appkit.App) {
		x.Sheet.EachSelected(func(_ string, c *Cell) { c.Format = "Percentage" })
	})
	num.Button("btnCommaStyle", "Comma Style", func(*appkit.App) {
		x.Sheet.EachSelected(func(_ string, c *Cell) { c.Format = "Comma" })
	})
	num.Button("btnIncreaseDecimal", "Increase Decimal", nil)
	num.Button("btnDecreaseDecimal", "Decrease Decimal", nil)
	num.DialogButton("btnFormatCells", "Format Cells", x.buildFormatCells(picker), nil)

	styles := home.Group("grpStyles", "Styles")
	styles.MenuButton("btnCondFormatting", "Conditional Formatting",
		x.buildCondFormattingMenu(), nil)
	fat := x.Gallery("galFormatAsTable", "Format as Table",
		tableStyleNames(), 21, nil)
	styles.MenuButton("btnFormatAsTable", "Format as Table", fat, nil)
	cs := x.Gallery("galCellStyles", "Cell Styles", catalog.CellStyles, 24, nil)
	styles.MenuButton("btnCellStyles", "Cell Styles", cs, nil)

	cells := home.Group("grpCells", "Cells")
	insMenu := x.NewMenu("mnuInsertCells", "Insert")
	for _, m := range []string{"Insert Cells", "Insert Sheet Rows",
		"Insert Sheet Columns", "Insert Sheet"} {
		insMenu.Panel().MenuItem("", m, nil)
	}
	cells.MenuButton("btnInsertCells", "Insert", insMenu, nil)
	delMenu := x.NewMenu("mnuDeleteCells", "Delete")
	for _, m := range []string{"Delete Cells", "Delete Sheet Rows",
		"Delete Sheet Columns", "Delete Sheet"} {
		delMenu.Panel().MenuItem("", m, nil)
	}
	cells.MenuButton("btnDeleteCells", "Delete", delMenu, nil)

	fmtMenu := x.NewMenu("mnuFormatCells", "Format")
	fm := fmtMenu.Panel()
	colWidthDlg := x.NewDialog("dlgColumnWidth", "Column Width")
	width := colWidthDlg.Panel().Spinner("spnColWidth", "Column width", 0, 255, 8.43, nil)
	colWidthDlg.AddOKCancel(func(*appkit.App) {
		_, c1, _, c2, ok := ParseRange(x.Sheet.SelectionRange())
		if !ok {
			return
		}
		for c := c1; c <= c2; c++ {
			x.Sheet.ColWidth[ColName(c)] = appkit.RangeValueOf(width)
		}
	})
	fm.MenuItem("", "Row Height", nil)
	fm.MenuItem("", "AutoFit Row Height", nil)
	fm.DialogButton("btnColumnWidth", "Column Width", colWidthDlg, nil)
	fm.MenuItem("btnAutoFitColumn", "AutoFit Column Width", func(*appkit.App) {
		_, c1, _, c2, ok := ParseRange(x.Sheet.SelectionRange())
		if !ok {
			return
		}
		for c := c1; c <= c2; c++ {
			x.Sheet.ColWidth[ColName(c)] = -1 // -1 = autofit
		}
	})
	fm.MenuItem("", "Hide Rows", nil)
	fm.MenuItem("", "Hide Columns", nil)
	fm.MenuItem("", "Unhide Rows", nil)
	fm.MenuItem("", "Unhide Columns", nil)
	fm.MenuItem("", "Rename Sheet", nil)
	fm.MenuButton("btnTabColor", "Tab Color", x.sharedPicker(), func(*appkit.App) any { return BindTabColor })
	cells.MenuButton("btnFormatMenu", "Format", fmtMenu, nil)

	edit := home.Group("grpEditing", "Editing")
	sumMenu := x.NewMenu("mnuAutoSum", "AutoSum")
	for _, m := range []string{"Sum", "Average", "Count Numbers", "Max", "Min"} {
		sumMenu.Panel().MenuItem("", m, nil)
	}
	edit.MenuButton("btnAutoSum", "AutoSum", sumMenu, nil)
	fillMenu := x.NewMenu("mnuFill", "Fill")
	for _, m := range []string{"Down", "Right", "Up", "Left", "Across Worksheets",
		"Series", "Justify", "Flash Fill"} {
		fillMenu.Panel().MenuItem("", m, nil)
	}
	edit.MenuButton("btnFill", "Fill", fillMenu, nil)
	clearMenu := x.NewMenu("mnuClear", "Clear")
	for _, m := range []string{"Clear All", "Clear Formats", "Clear Contents",
		"Clear Comments", "Clear Hyperlinks"} {
		clearMenu.Panel().MenuItem("", m, nil)
	}
	edit.MenuButton("btnClear", "Clear", clearMenu, nil)
	edit.MenuButton("btnSortFilter", "Sort & Filter", x.buildSortFilterMenu(), nil)
	fsMenu := x.NewMenu("mnuFindSelect", "Find & Select")
	for _, m := range []string{"Find", "Replace", "Go To", "Go To Special",
		"Formulas", "Comments", "Conditional Formatting Cells", "Constants"} {
		fsMenu.Panel().MenuItem("", m, nil)
	}
	edit.MenuButton("btnFindSelect", "Find & Select", fsMenu, nil)
}

// sharedPicker returns the app's color picker popup (created first in New).
func (x *App) sharedPicker() *appkit.Popup {
	return x.popupByWindowID("clrPicker")
}

func (x *App) popupByWindowID(autoID string) *appkit.Popup {
	for _, p := range x.PopupTemplates() {
		if p.Win.AutomationID() == autoID {
			return p
		}
	}
	return nil
}

func (x *App) buildCondFormattingMenu() *appkit.Popup {
	menu := x.NewMenu("mnuCondFmt", "Conditional Formatting")
	body := menu.Panel()

	hcr := body.Pane("pnlHighlightRules", "Highlight Cells Rules")
	gtDlg := x.NewDialog("dlgGreaterThan", "Greater Than")
	gp := gtDlg.Panel()
	thEd := gp.Edit("edGTValue", "Format cells that are GREATER THAN", "", nil)
	fills := []string{"Light Red Fill with Dark Red Text", "Yellow Fill with Dark Yellow Text",
		"Green Fill with Dark Green Text", "Light Red Fill", "Red Text", "Red Border"}
	fill := gp.ComboBox("cbGTFill", "with", fills, nil)
	gtDlg.AddOKCancel(func(*appkit.App) {
		// A value that is no number is a threshold of 0.
		threshold, ok := Numeric(appkit.ValueOf(thEd))
		if !ok {
			threshold = 0
		}
		chosenFill := appkit.ValueOf(fill)
		if chosenFill == "" {
			chosenFill = fills[0]
		}
		x.Sheet.AddCondRule(CondRule{
			Kind: "GreaterThan", Threshold: threshold,
			Fill: chosenFill, Range: x.Sheet.SelectionRange(),
		})
	})
	gt := hcr.DialogButton("btnGreaterThan", "Greater Than", gtDlg, nil)
	gt.SetDescription("Highlight cells greater than a value; applies to the selected range")
	for _, m := range []string{"Less Than", "Between", "Equal To",
		"Text that Contains", "A Date Occurring", "Duplicate Values"} {
		hcr.MenuItem("", m, nil)
	}

	tb := body.Pane("pnlTopBottom", "Top/Bottom Rules")
	for _, m := range []string{"Top 10 Items", "Top 10%", "Bottom 10 Items",
		"Bottom 10%", "Above Average", "Below Average"} {
		tb.MenuItem("", m, nil)
	}
	db := body.Pane("pnlDataBars", "Data Bars")
	for _, m := range []string{"Blue Data Bar (Gradient)", "Green Data Bar (Gradient)",
		"Red Data Bar (Gradient)", "Orange Data Bar (Gradient)",
		"Light Blue Data Bar (Gradient)", "Purple Data Bar (Gradient)",
		"Blue Data Bar (Solid)", "Green Data Bar (Solid)", "Red Data Bar (Solid)",
		"Orange Data Bar (Solid)", "Light Blue Data Bar (Solid)",
		"Purple Data Bar (Solid)"} {
		db.MenuItem("", m, nil)
	}
	csc := body.Pane("pnlColorScales", "Color Scales")
	for i := 1; i <= 12; i++ {
		csc.MenuItem("", fmt.Sprintf("Color Scale %d", i), nil)
	}
	is := body.Pane("pnlIconSets", "Icon Sets")
	for _, m := range []string{"3 Arrows (Colored)", "3 Arrows (Gray)",
		"3 Triangles", "3 Stars", "3 Flags", "3 Traffic Lights",
		"3 Traffic Lights Rimmed", "3 Signs", "3 Symbols Circled",
		"3 Symbols", "4 Arrows (Colored)", "4 Arrows (Gray)",
		"4 Red To Black", "4 Ratings", "4 Traffic Lights",
		"5 Arrows (Colored)", "5 Arrows (Gray)", "5 Ratings",
		"5 Quarters", "5 Boxes"} {
		is.MenuItem("", m, nil)
	}
	body.MenuItem("", "New Rule", nil)
	body.MenuItem("", "Clear Rules from Selected Cells", nil)
	body.MenuItem("", "Clear Rules from Entire Sheet", func(*appkit.App) { x.Sheet.CondRules = nil })
	body.MenuItem("", "Manage Rules", nil)
	return menu
}

func (x *App) buildSortFilterMenu() *appkit.Popup {
	menu := x.NewMenu("mnuSortFilter", "Sort & Filter")
	body := menu.Panel()
	body.MenuItem("btnSortAZ", "Sort A to Z", func(*appkit.App) {
		x.Sheet.SortByColumn(colOfSelection(x.Sheet), false, true)
	})
	body.MenuItem("btnSortZA", "Sort Z to A", func(*appkit.App) {
		x.Sheet.SortByColumn(colOfSelection(x.Sheet), true, true)
	})

	sortDlg := x.NewDialog("dlgSort", "Sort")
	sp := sortDlg.Panel()
	cols := make([]string, GridCols)
	for i := range cols {
		cols[i] = "Column " + ColName(i+1)
	}
	sortBy := sp.ComboBox("cbSortBy", "Sort by", cols, nil)
	sortOrder := sp.ComboBox("cbSortOrder", "Order", []string{"Ascending", "Descending"}, nil)
	sp.CheckBox("chkHasHeaders", "My data has headers",
		func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})
	sortOptions := sp.Pane("pnlSortOptions", "Sort Options")
	sortOptions.CheckBox("chkCaseSensitive", "Case sensitive",
		func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	sortOptions.RadioGroup("rbSortOrient", []string{"Sort top to bottom", "Sort left to right"}, nil)
	appkit.AddDetailToggle(sp, "btnSort", "Options", "Hide Options", sortOptions.El)
	sortDlg.AddOKCancel(func(*appkit.App) {
		sortCol := strings.TrimPrefix(appkit.ValueOf(sortBy), "Column ")
		if sortCol == "" {
			sortCol = "A"
		}
		x.Sheet.SortByColumn(sortCol, appkit.ValueOf(sortOrder) == "Descending", true)
	})
	x.sortDlg = sortDlg
	body.DialogButton("btnCustomSort", "Custom Sort", sortDlg, nil)

	body.MenuItem("btnFilterToggle", "Filter", func(*appkit.App) {
		x.Sheet.FilterOn = !x.Sheet.FilterOn
	})
	body.MenuItem("", "Clear Filter", func(*appkit.App) { x.Sheet.FilterOn = false })
	body.MenuItem("", "Reapply Filter", nil)
	return menu
}

func (x *App) buildFormatCells(picker *appkit.Popup) *appkit.Popup {
	dlg := x.NewDialog("dlgFormatCellsFull", "Format Cells")
	p := dlg.Panel()
	category := p.ChoiceList("lstNumberCategory", "Category", []string{"General", "Number",
		"Currency", "Accounting", "Date", "Time", "Percentage", "Fraction", "Scientific",
		"Text", "Special", "Custom"})
	codes := p.List("lstCustomFormats", "Type")
	for _, code := range []string{"0", "0.00", "#,##0", "#,##0.00",
		"#,##0_);(#,##0)", "#,##0_);[Red](#,##0)", "#,##0.00_);(#,##0.00)",
		"#,##0.00_);[Red](#,##0.00)", "$#,##0_);($#,##0)",
		"$#,##0_);[Red]($#,##0)", "$#,##0.00_);($#,##0.00)",
		"$#,##0.00_);[Red]($#,##0.00)", "0%", "0.00%", "0.00E+00",
		"##0.0E+0", "# ?/?", "# ??/??", "m/d/yyyy", "d-mmm-yy", "d-mmm",
		"mmm-yy", "h:mm AM/PM", "h:mm:ss AM/PM", "h:mm", "h:mm:ss",
		"m/d/yyyy h:mm", "mm:ss", "mm:ss.0", "@", "[h]:mm:ss",
		"_($* #,##0_);_($* (#,##0);_($* \"-\"_);_(@_)",
		"_(* #,##0_);_(* (#,##0);_(* \"-\"_);_(@_)",
		"_($* #,##0.00_);_($* (#,##0.00);_($* \"-\"??_);_(@_)",
		"_(* #,##0.00_);_(* (#,##0.00);_(* \"-\"??_);_(@_)",
		"yyyy-mm-dd", "dddd, mmmm dd, yyyy", "General;General;\"-\"",
		"[Blue]0.00;[Red]-0.00", "0.0\"k\""} {
		codes.ListItem("", code, nil)
	}
	p.Spinner("spnDecimalPlaces", "Decimal places", 0, 30, 2, nil)
	p.CheckBox("chkThousands", "Use 1000 Separator",
		func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	p.MenuButton("btnCellFillColor", "Cell Fill Color", picker,
		func(*appkit.App) any { return BindFillColor })
	dlg.AddOKCancel(func(*appkit.App) {
		if chosen := category.Chosen(); chosen != "" {
			x.Sheet.EachSelected(func(_ string, c *Cell) { c.Format = chosen })
		}
	})
	return dlg
}

func (x *App) buildInsert() {
	ins := x.Tab("tabInsert", "Insert")
	tables := ins.Group("grpTables", "Tables")
	pivotDlg := x.NewDialog("dlgPivot", "Create PivotTable")
	pivotDlg.Panel().Edit("edPivotRange", "Table/Range", "", nil)
	pivotDlg.AddOKCancel(nil)
	tables.DialogButton("btnPivotTable", "PivotTable", pivotDlg, nil)
	tables.Button("btnTable", "Table", nil)

	shared.AddIllustrations(x.App, ins, "x", func(_ *appkit.App, what string) {
		if strings.HasPrefix(what, "chart:") {
			x.Sheet.Charts = append(x.Sheet.Charts, strings.TrimPrefix(what, "chart:"))
			_ = x.EnterContext(ContextChartSelected)
		}
	})

	charts := ins.Group("grpCharts", "Charts")
	quick := x.Gallery("galQuickCharts", "Recommended Charts",
		[]string{"Clustered Column", "Line", "Pie", "Bar", "Area", "Scatter",
			"Waterfall", "Histogram", "Treemap", "Combo", "Map", "Stock"}, 12,
		func(_ *appkit.App, ct string) {
			x.Sheet.Charts = append(x.Sheet.Charts, ct)
			_ = x.EnterContext(ContextChartSelected)
		})
	charts.MenuButton("btnRecommendedCharts", "Recommended Charts", quick, nil)

	spark := ins.Group("grpSparklines", "Sparklines")
	spark.Button("btnSparkLine", "Line Sparkline", nil)
	spark.Button("btnSparkColumn", "Column Sparkline", nil)
	spark.Button("btnSparkWinLoss", "Win/Loss Sparkline", nil)

	filters := ins.Group("grpFilters", "Filters")
	filters.Button("btnSlicer", "Slicer", nil)
	filters.Button("btnTimeline", "Timeline", nil)

	text := ins.Group("grpText", "Text")
	text.Button("btnTextBox", "Text Box", nil)
	text.Button("btnHeaderFooter", "Header & Footer", nil)
	wa := x.Gallery("galWordArt", "WordArt", catalog.WordArtStyles(), 10, nil)
	text.MenuButton("btnWordArt", "WordArt", wa, nil)

	shared.AddSymbols(x.App, ins, "x", nil)
}

func (x *App) buildPageLayout() {
	pl := x.Tab("tabPageLayout", "Page Layout")
	shared.AddThemes(x.App, pl.Group("grpThemes", "Themes"), "x",
		func(_ *appkit.App, th string) { x.Sheet.Theme = th })

	ps := pl.Group("grpPageSetup", "Page Setup")
	margins := x.Gallery("galMargins", "Margins",
		[]string{"Normal", "Wide", "Narrow"}, 3, nil)
	ps.MenuButton("btnMargins", "Margins", margins, nil)
	orient := x.NewMenu("mnuOrientation", "Orientation")
	for _, o := range []string{"Portrait", "Landscape"} {
		orient.Panel().MenuItem("", o, nil)
	}
	ps.MenuButton("btnOrientation", "Orientation", orient, nil)
	size := x.Gallery("galPaperSize", "Size",
		[]string{"Letter", "Legal", "A3", "A4", "A5", "Executive", "Tabloid"}, 7, nil)
	ps.MenuButton("btnSize", "Size", size, nil)
	ps.Button("btnPrintArea", "Print Area", nil)
	ps.Button("btnBreaks", "Breaks", nil)
	ps.Button("btnBackground", "Background", nil)
	ps.Button("btnPrintTitles", "Print Titles", nil)

	stf := pl.Group("grpScaleToFit", "Scale to Fit")
	stf.Spinner("spnScaleWidth", "Width", 0, 10, 0, nil)
	stf.Spinner("spnScaleHeight", "Height", 0, 10, 0, nil)
	stf.Spinner("spnScale", "Scale", 10, 400, 100, nil)

	so := pl.Group("grpSheetOptions", "Sheet Options")
	so.CheckBox("chkViewGridlines", "View Gridlines",
		func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})
	so.CheckBox("chkPrintGridlines", "Print Gridlines",
		func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	so.CheckBox("chkViewHeadings", "View Headings",
		func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})
	so.CheckBox("chkPrintHeadings", "Print Headings",
		func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
}

func (x *App) buildFormulas() {
	f := x.Tab("tabFormulas", "Formulas")
	lib := f.Group("grpFunctionLibrary", "Function Library")
	insFn := x.NewDialog("dlgInsertFunction", "Insert Function")
	ifp := insFn.Panel()
	ifp.Edit("edSearchFunction", "Search for a function", "", nil)
	ifp.ComboBox("cbFnCategory", "Or select a category",
		[]string{"Most Recently Used", "All", "Financial", "Date & Time",
			"Math & Trig", "Statistical", "Lookup & Reference", "Database",
			"Text", "Logical", "Information", "Engineering", "Cube",
			"Compatibility", "Web"}, nil)
	fnList := ifp.List("lstAllFunctions", "Select a function")
	fnList.El.MarkLargeEnum()
	allFns := catalog.ExcelFunctions()
	for _, cat := range catalog.ExcelFunctionCategories() {
		for _, fn := range allFns[cat] {
			fn := fn
			fnList.ListItem("", fn, func(*appkit.App) {
				x.Sheet.SetValue(x.Sheet.ActiveCell, "="+fn+"()")
			})
		}
	}
	insFn.AddOKCancel(nil)
	lib.DialogButton("btnInsertFunction", "Insert Function", insFn, nil)

	for _, cat := range catalog.ExcelFunctionCategories() {
		fns := allFns[cat]
		catID := "mnuFn" + strings.ReplaceAll(strings.ReplaceAll(cat, " ", ""), "&", "")
		m := x.NewMenu(catID, cat)
		mb := m.Panel()
		if len(fns) > appkit.LargeEnumThreshold {
			m.Body.MarkLargeEnum()
		}
		for _, fn := range fns {
			fn := fn
			mb.MenuItem("", fn, func(*appkit.App) {
				x.Sheet.SetValue(x.Sheet.ActiveCell, "="+fn+"()")
			})
		}
		lib.MenuButton("btn"+catID, cat, m, nil)
	}

	names := f.Group("grpDefinedNames", "Defined Names")
	names.Button("btnNameManager", "Name Manager", nil)
	names.Button("btnDefineName", "Define Name", nil)
	names.Button("btnUseInFormula", "Use in Formula", nil)
	names.Button("btnCreateFromSelection", "Create from Selection", nil)

	audit := f.Group("grpFormulaAuditing", "Formula Auditing")
	for _, b := range []string{"Trace Precedents", "Trace Dependents",
		"Remove Arrows", "Show Formulas", "Error Checking", "Evaluate Formula"} {
		audit.Button("btn"+strings.ReplaceAll(b, " ", ""), b, nil)
	}
	calc := f.Group("grpCalculation", "Calculation")
	calc.Button("btnCalculateNow", "Calculate Now", nil)
	calc.Button("btnCalculateSheet", "Calculate Sheet", nil)
	calc.Button("btnCalcOptions", "Calculation Options", nil)
}

func (x *App) buildData() {
	d := x.Tab("tabData", "Data")
	get := d.Group("grpGetData", "Get & Transform Data")
	getMenu := x.NewMenu("mnuGetData", "Get Data")
	for _, m := range []string{"From Text/CSV", "From Web", "From Table/Range",
		"From Workbook", "From Database", "From Azure", "From Other Sources"} {
		getMenu.Panel().MenuItem("", m, nil)
	}
	get.MenuButton("btnGetData", "Get Data", getMenu, nil)
	get.Button("btnRefreshAll", "Refresh All", nil)

	sf := d.Group("grpSortFilterData", "Sort & Filter")
	sf.Button("btnSortAZData", "Sort A to Z", func(*appkit.App) {
		x.Sheet.SortByColumn(colOfSelection(x.Sheet), false, true)
	})
	sf.Button("btnSortZAData", "Sort Z to A", func(*appkit.App) {
		x.Sheet.SortByColumn(colOfSelection(x.Sheet), true, true)
	})
	sf.ToggleButton("btnFilterData", "Filter",
		func(*appkit.App) bool { return x.Sheet.FilterOn },
		func(_ *appkit.App, on bool) { x.Sheet.FilterOn = on })
	// The Sort dialog is reachable from Home → Sort & Filter and from
	// here: a second path into the same dialog (merge node).
	sf.DialogButton("btnSortDialogData", "Sort", x.sortDlg, nil)

	tools := d.Group("grpDataTools", "Data Tools")
	wiz := x.Wizard("wizTextToColumns", "Convert Text to Columns Wizard",
		[]appkit.WizardStep{
			{Name: "Choose the file type", Build: func(p appkit.Panel) {
				p.RadioGroup("rbTTCType", []string{"Delimited", "Fixed width"}, nil)
			}},
			{Name: "Set the delimiters", Build: func(p appkit.Panel) {
				p.CheckBox("chkTab", "Tab", func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})
				p.CheckBox("chkSemicolon", "Semicolon", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
				p.CheckBox("chkComma", "Comma", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
				p.CheckBox("chkSpace", "Space", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
			}},
			{Name: "Set the data format", Build: func(p appkit.Panel) {
				p.RadioGroup("rbTTCFormat", []string{"General", "Text", "Date"}, nil)
			}},
		}, nil)
	tools.DialogButton("btnTextToColumns", "Text to Columns", wiz, nil)
	tools.Button("btnFlashFill", "Flash Fill", nil)
	tools.Button("btnRemoveDuplicates", "Remove Duplicates", nil)
	dv := x.NewDialog("dlgDataValidation", "Data Validation")
	dv.Panel().ComboBox("cbDVAllow", "Allow",
		[]string{"Any value", "Whole number", "Decimal", "List", "Date",
			"Time", "Text length", "Custom"}, nil)
	dv.AddOKCancel(nil)
	tools.DialogButton("btnDataValidation", "Data Validation", dv, nil)
	tools.Button("btnConsolidate", "Consolidate", nil)

	wi := d.Group("grpForecast", "Forecast")
	whatIf := x.NewMenu("mnuWhatIf", "What-If Analysis")
	for _, m := range []string{"Scenario Manager", "Goal Seek", "Data Table"} {
		whatIf.Panel().MenuItem("", m, nil)
	}
	wi.MenuButton("btnWhatIf", "What-If Analysis", whatIf, nil)
	wi.Button("btnForecastSheet", "Forecast Sheet", nil)

	outline := d.Group("grpOutline", "Outline")
	outline.Button("btnGroup", "Group", nil)
	outline.Button("btnUngroup", "Ungroup", nil)
	outline.Button("btnSubtotal", "Subtotal", nil)
}

func (x *App) buildReview() {
	r := x.Tab("tabReview", "Review")
	proof := r.Group("grpProofing", "Proofing")
	proof.Button("btnSpelling", "Spelling", nil)
	proof.Button("btnThesaurus", "Thesaurus", nil)
	comments := r.Group("grpComments", "Comments")
	comments.Button("btnNewComment", "New Comment", nil)
	comments.Button("btnDeleteComment", "Delete Comment", nil)
	protect := r.Group("grpProtect", "Protect")
	protect.Button("btnProtectSheet", "Protect Sheet", nil)
	protect.Button("btnProtectWorkbook", "Protect Workbook", nil)
}

func (x *App) buildView() {
	v := x.Tab("tabView", "View")
	views := v.Group("grpWorkbookViews", "Workbook Views")
	for _, b := range []string{"Normal", "Page Break Preview", "Page Layout",
		"Custom Views"} {
		views.Button("btnView"+strings.ReplaceAll(b, " ", ""), b, nil)
	}
	show := v.Group("grpShow", "Show")
	show.CheckBox("chkFormulaBar", "Formula Bar",
		func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})
	show.CheckBox("chkGridlinesView", "Gridlines",
		func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})
	show.CheckBox("chkHeadings", "Headings",
		func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})

	zoom := v.Group("grpZoom", "Zoom")
	zoomDlg := x.NewDialog("dlgZoom", "Zoom")
	zoomDlg.Panel().RadioGroup("rbZoom",
		[]string{"200%", "100%", "75%", "50%", "25%", "Fit selection", "Custom"},
		func(_ *appkit.App, i int) {
			vals := []int{200, 100, 75, 50, 25, 100, 100}
			x.Sheet.Zoom = vals[i]
		})
	zoomDlg.AddOKCancel(nil)
	zoom.DialogButton("btnZoom", "Zoom", zoomDlg, nil)
	zoom.Button("btnZoom100", "100%", func(*appkit.App) { x.Sheet.Zoom = 100 })
	zoom.Button("btnZoomToSelection", "Zoom to Selection", nil)

	win := v.Group("grpWindow", "Window")
	freeze := x.NewMenu("mnuFreezePanes", "Freeze Panes")
	fp := freeze.Panel()
	ftr := fp.MenuItem("btnFreezeTopRow", "Freeze Top Row", func(*appkit.App) {
		x.Sheet.FrozenTopRow = true
	})
	ftr.SetDescription("Keep the top row visible while scrolling")
	fp.MenuItem("btnFreezeFirstColumn", "Freeze First Column", func(*appkit.App) {
		x.Sheet.FrozenFirstCol = true
	})
	fp.MenuItem("btnFreezePanesItem", "Freeze Panes", func(*appkit.App) {
		x.Sheet.FrozenTopRow, x.Sheet.FrozenFirstCol = true, true
	})
	fp.MenuItem("btnUnfreeze", "Unfreeze Panes", func(*appkit.App) {
		x.Sheet.FrozenTopRow, x.Sheet.FrozenFirstCol = false, false
	})
	win.MenuButton("btnFreezePanes", "Freeze Panes", freeze, nil)
	win.Button("btnNewWindow", "New Window", nil)
	win.Button("btnSplit", "Split", nil)
}

func (x *App) buildChartDesign() {
	cd := x.ContextTab("tabChartDesign", "Chart Design", ContextChartSelected)
	layouts := cd.Group("grpChartLayouts", "Chart Layouts")
	ql := x.Gallery("galQuickLayout", "Quick Layout",
		[]string{"Layout 1", "Layout 2", "Layout 3", "Layout 4", "Layout 5",
			"Layout 6", "Layout 7", "Layout 8", "Layout 9", "Layout 10",
			"Layout 11"}, 11, nil)
	layouts.MenuButton("btnQuickLayout", "Quick Layout", ql, nil)
	styles := cd.Group("grpChartStyles", "Chart Styles")
	csGal := x.Gallery("galChartStyles", "Chart Styles",
		[]string{"Style 1", "Style 2", "Style 3", "Style 4", "Style 5",
			"Style 6", "Style 7", "Style 8", "Style 9", "Style 10",
			"Style 11", "Style 12", "Style 13", "Style 14"}, 14, nil)
	styles.MenuButton("btnChartStylesGal", "Chart Styles", csGal, nil)
	data := cd.Group("grpChartData", "Data")
	data.Button("btnSwitchRowColumn", "Switch Row/Column", nil)
	data.Button("btnSelectData", "Select Data", nil)
}

// buildGrid attaches the Name Box, formula bar, the cell grid, and the
// vertical scrollbar.
func (x *App) buildGrid() {
	bar := x.Window().Pane("pnlFormulaBar", "Formula Bar Area")
	x.nameBox = bar.CommitEdit("edNameBox", "Name Box", "A1", func(_ *appkit.App, v string) {
		if x.Sheet.SelectRange(v) {
			x.ScrollToRow(rowOf(x.Sheet.ActiveCell))
		}
	})
	bar.CommitEdit("edFormulaBar", "Formula Bar", "", func(_ *appkit.App, v string) {
		x.Sheet.SetValue(x.Sheet.ActiveCell, v)
		x.refreshCell(x.Sheet.ActiveCell)
	})

	gridPanel := x.Window().Pane("pnlGridArea", "Sheet Area")
	grid := uia.NewElement("grdSheet1", "Sheet1", uia.DataGridControl)
	grid.SetDescription("Worksheet cell grid; cells are DataItem controls named by reference")
	gridPanel.Custom(grid)
	x.gridEl = grid

	hdr := uia.NewElement("hdrCols", "Column Headers", uia.HeaderControl)
	grid.AddChild(hdr)
	for c := 1; c <= GridCols; c++ {
		h := uia.NewElement("", "Column "+ColName(c), uia.HeaderItemControl)
		hdr.AddChild(h)
	}
	sel := uia.NewSelectionList(true, nil)
	grid.SetPattern(uia.SelectionPattern, sel)

	for r := 1; r <= GridRows; r++ {
		for c := 1; c <= GridCols; c++ {
			ref := Ref(r, c)
			item := uia.NewElement("cell"+ref, ref, uia.DataItemControl)
			item.SetPattern(uia.ValuePattern, &cellValue{x: x, ref: ref})
			item.SetPattern(uia.SelectionItemPattern, sel.Item())
			item.OnClick(func(*uia.Element) { x.Sheet.Select(ref, ref) })
			grid.AddChild(item)
			x.cells[r][c] = item
		}
	}
	x.applyViewport()

	x.Window().VScrollBar("sbSheet", "Vertical Scroll Bar", func(_ *appkit.App, v float64) {
		x.ScrollTo(v)
	})
	status := x.Window().Pane("pnlStatusBar", "Status Bar")
	status.Label("Ready")
}

// cellValue adapts a sheet cell to the uia Value pattern.
type cellValue struct {
	x   *App
	ref string
}

func (cv *cellValue) Value(*uia.Element) string { return cv.x.Sheet.Value(cv.ref) }
func (cv *cellValue) SetValue(_ *uia.Element, v string) error {
	cv.x.Sheet.SetValue(cv.ref, v)
	return nil
}
func (cv *cellValue) IsReadOnly(*uia.Element) bool { return false }

// ScrollTo pans the viewport to v% of the scroll range.
func (x *App) ScrollTo(v float64) {
	maxTop := GridRows - VisibleRows + 1
	top := 1 + int(v/100*float64(maxTop-1)+0.5)
	if top < 1 {
		top = 1
	}
	if top > maxTop {
		top = maxTop
	}
	x.setViewTop(top)
}

// ScrollToRow pans the viewport so the given row is visible.
func (x *App) ScrollToRow(row int) {
	if row >= x.viewTop && row < x.viewTop+VisibleRows {
		return
	}
	top := row - VisibleRows/2
	maxTop := GridRows - VisibleRows + 1
	if top < 1 {
		top = 1
	}
	if top > maxTop {
		top = maxTop
	}
	x.setViewTop(top)
}

// setViewTop pans the viewport to start at row top, through the undo seam.
func (x *App) setViewTop(top int) {
	uia.Store(x.Win, &x.viewTop, top)
	x.applyViewport()
}

// applyViewport shows the VisibleRows rows from viewTop, plus row 1 while
// the top row is frozen, and hides every other row.
func (x *App) applyViewport() {
	for r := 1; r <= GridRows; r++ {
		visible := r >= x.viewTop && r < x.viewTop+VisibleRows || x.Sheet.FrozenTopRow && r == 1
		for _, item := range x.cells[r][1:] {
			item.SetVisible(visible)
		}
	}
}

func (x *App) refreshCell(string) { /* values are read through the pattern; nothing cached */ }

func colOfSelection(s *Sheet) string {
	_, c, ok := ParseRef(s.ActiveCell)
	if !ok {
		return "A"
	}
	return ColName(c)
}

func rowOf(ref string) int {
	r, _, ok := ParseRef(ref)
	if !ok {
		return 1
	}
	return r
}

func tableStyleNames() []string {
	var out []string
	for _, shade := range []string{"Light", "Medium", "Dark"} {
		n := 21
		if shade == "Dark" {
			n = 11
		}
		for i := 1; i <= n; i++ {
			out = append(out, fmt.Sprintf("Table Style %s %d", shade, i))
		}
	}
	return out
}
