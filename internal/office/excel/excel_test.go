package excel

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/uia"
)

func click(t *testing.T, x *App, el *uia.Element) {
	t.Helper()
	if el == nil {
		t.Fatal("click target is nil")
	}
	if err := x.Desk.Click(el); err != nil {
		t.Fatalf("click %v: %v", el, err)
	}
}

func findIn(t *testing.T, root *uia.Element, autoID string) *uia.Element {
	t.Helper()
	e := root.FindByAutomationID(autoID)
	if e == nil {
		t.Fatalf("control %q not found", autoID)
	}
	return e
}

func TestRefParsing(t *testing.T) {
	cases := []struct {
		ref      string
		row, col int
		ok       bool
	}{
		{"A1", 1, 1, true},
		{"J30", 30, 10, true},
		{"b12", 12, 2, true},
		{" C3 ", 3, 3, true},
		{"K1", 0, 0, false},  // beyond GridCols
		{"A31", 0, 0, false}, // beyond GridRows
		{"1A", 0, 0, false},
		{"", 0, 0, false},
		{"A", 0, 0, false},
	}
	for _, c := range cases {
		r, col, ok := ParseRef(c.ref)
		if r != c.row || col != c.col || ok != c.ok {
			t.Errorf("ParseRef(%q) = %d,%d,%v want %d,%d,%v", c.ref, r, col, ok, c.row, c.col, c.ok)
		}
	}
}

func TestRefRoundTripProperty(t *testing.T) {
	f := func(r, c uint8) bool {
		row := int(r)%GridRows + 1
		col := int(c)%GridCols + 1
		rr, cc, ok := ParseRef(Ref(row, col))
		return ok && rr == row && cc == col
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseRangeNormalizes(t *testing.T) {
	r1, c1, r2, c2, ok := ParseRange("C10:A1")
	if !ok || r1 != 1 || c1 != 1 || r2 != 10 || c2 != 3 {
		t.Errorf("ParseRange normalized = %d,%d,%d,%d,%v", r1, c1, r2, c2, ok)
	}
}

func TestScale(t *testing.T) {
	x := New()
	x.MaterializeAll() // count the gallery and combo items too
	n := x.Win.Count()
	for _, p := range x.AllPopupWindows() {
		n += p.Count()
	}
	if n < 3800 {
		t.Errorf("excel exposes %d controls, want > 3800", n)
	}
	t.Logf("excel controls: %d", n)
}

func TestNameBoxCommitSelectsAndScrolls(t *testing.T) {
	x := New()
	click(t, x, x.nameBox)
	if err := x.Desk.TypeText("B25"); err != nil {
		t.Fatal(err)
	}
	if x.Sheet.ActiveCell != "A1" {
		t.Fatal("selection moved before ENTER commit")
	}
	if err := x.Desk.PressKey("ENTER"); err != nil {
		t.Fatal(err)
	}
	if x.Sheet.ActiveCell != "B25" {
		t.Fatalf("active cell = %q, want B25", x.Sheet.ActiveCell)
	}
	if !x.DataItem("B25").OnScreen() {
		t.Fatal("committed cell not scrolled into view")
	}
}

func TestFormulaBarWritesActiveCell(t *testing.T) {
	x := New()
	x.Sheet.SelectRange("D4")
	fb := findIn(t, x.Win, "edFormulaBar")
	click(t, x, fb)
	if err := x.Desk.TypeText("=SUM(B2:B6)"); err != nil {
		t.Fatal(err)
	}
	if err := x.Desk.PressKey("ENTER"); err != nil {
		t.Fatal(err)
	}
	if got := x.Sheet.Value("D4"); got != "=SUM(B2:B6)" {
		t.Errorf("D4 = %q", got)
	}
}

func TestViewportScrolling(t *testing.T) {
	x := New()
	if !x.DataItem("A1").OnScreen() || x.DataItem("A30").OnScreen() {
		t.Fatal("initial viewport wrong")
	}
	x.ScrollTo(100)
	if x.DataItem("A1").OnScreen() {
		t.Fatal("A1 still visible at bottom scroll")
	}
	if !x.DataItem("A30").OnScreen() {
		t.Fatal("A30 not visible at bottom scroll")
	}
	// Freezing the top row keeps row 1 visible regardless of scroll.
	x.Sheet.FrozenTopRow = true
	x.ScrollTo(100)
	if !x.DataItem("A1").OnScreen() {
		t.Fatal("frozen top row not visible after scroll")
	}
}

func TestFreezeTopRowViaMenu(t *testing.T) {
	x := New()
	x.ActivateTabByName("View")
	click(t, x, findIn(t, x.Win, "btnFreezePanes"))
	menu := x.Desk.TopWindow()
	click(t, x, findIn(t, menu, "btnFreezeTopRow"))
	if !x.Sheet.FrozenTopRow {
		t.Fatal("freeze top row not applied")
	}
	if x.Sheet.FrozenFirstCol {
		t.Fatal("freeze leaked to first column")
	}
}

func TestNumberFormatViaRibbon(t *testing.T) {
	x := New()
	x.Sheet.SelectRange("B2:B6")
	cb := findIn(t, x.Win, "cbNumberFormat")
	click(t, x, cb) // expand
	item := cb.FindByName("Percentage")
	click(t, x, item)
	if got := x.Sheet.Cell("B3").Format; got != "Percentage" {
		t.Errorf("B3 format = %q", got)
	}
	if got := x.Sheet.Cell("C3").Format; got == "Percentage" {
		t.Error("format leaked outside selection")
	}
}

func TestConditionalFormattingGreaterThan(t *testing.T) {
	x := New()
	x.Sheet.SelectRange("B2:B6")
	click(t, x, findIn(t, x.Win, "btnCondFormatting"))
	menu := x.Desk.TopWindow()
	click(t, x, findIn(t, menu, "btnGreaterThan"))
	dlg := x.Desk.TopWindow()
	ed := findIn(t, dlg, "edGTValue")
	click(t, x, ed)
	if err := x.Desk.TypeText("100"); err != nil {
		t.Fatal(err)
	}
	click(t, x, findIn(t, dlg, "dlgGreaterThanOK"))

	if len(x.Sheet.CondRules) != 1 {
		t.Fatalf("cond rules = %d", len(x.Sheet.CondRules))
	}
	// 120, 143, 131 are > 100; 95 and 88 are not.
	want := map[string]bool{"B2": true, "B3": false, "B4": true, "B5": false, "B6": true}
	for ref, hl := range want {
		got := x.Sheet.Cell(ref).Fill != ""
		if got != hl {
			t.Errorf("%s highlighted=%v want %v", ref, got, hl)
		}
	}
}

func TestSortDescendingViaDialog(t *testing.T) {
	x := New()
	x.Sheet.SelectRange("A1:C6")
	click(t, x, findIn(t, x.Win, "btnSortFilter"))
	menu := x.Desk.TopWindow()
	click(t, x, findIn(t, menu, "btnCustomSort"))
	dlg := x.Desk.TopWindow()

	by := findIn(t, dlg, "cbSortBy")
	click(t, x, by)
	click(t, x, by.FindByName("Column B"))
	ord := findIn(t, dlg, "cbSortOrder")
	click(t, x, ord)
	click(t, x, ord.FindByName("Descending"))
	click(t, x, findIn(t, dlg, "dlgSortOK"))

	got := x.Sheet.Column("B")
	want := []string{"Sales", "143", "131", "120", "95", "88"}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("column B after sort = %v, want %v", got, want)
		}
	}
	if x.Sheet.SortedBy != "B" || !x.Sheet.SortDesc {
		t.Error("sort metadata not recorded")
	}
	// Row integrity: the row with Sales=143 must still be East.
	if x.Sheet.Value("A2") != "East" {
		t.Errorf("A2 = %q, rows were torn apart by sort", x.Sheet.Value("A2"))
	}
}

func TestFillColorPathSemantics(t *testing.T) {
	x := New()
	x.Sheet.SelectRange("A1:A2")
	click(t, x, findIn(t, x.Win, "btnFillColor"))
	picker := x.Desk.TopWindow()
	click(t, x, picker.FindByName("Gold"))
	if x.Sheet.Cell("A1").Fill != "Gold" || x.Sheet.Cell("A2").Fill != "Gold" {
		t.Error("fill color not applied")
	}
	if x.Sheet.Cell("A1").FontColor == "Gold" {
		t.Error("fill path changed font color")
	}

	x.Sheet.SelectRange("A1")
	click(t, x, findIn(t, x.Win, "btnFontColor"))
	picker = x.Desk.TopWindow()
	click(t, x, picker.FindByName("Red"))
	if x.Sheet.Cell("A1").FontColor != "Red" {
		t.Error("font color not applied via second path")
	}
}

func TestTextToColumnsWizardCycle(t *testing.T) {
	x := New()
	x.ActivateTabByName("Data")
	click(t, x, findIn(t, x.Win, "btnTextToColumns"))
	wiz := x.Desk.TopWindow()
	step1 := findIn(t, wiz, "wizTextToColumnsStep1")
	step2 := findIn(t, wiz, "wizTextToColumnsStep2")
	next := findIn(t, wiz, "wizTextToColumnsNextStep")
	back := findIn(t, wiz, "wizTextToColumnsBack")

	if !step1.OnScreen() {
		t.Fatal("wizard not at step 1")
	}
	click(t, x, next)
	if !step2.OnScreen() || step1.OnScreen() {
		t.Fatal("Next did not advance")
	}
	click(t, x, back)
	if !step1.OnScreen() {
		t.Fatal("Back did not return (wizard cycle)")
	}
	click(t, x, findIn(t, wiz, "wizTextToColumnsFinish"))
	if x.OpenPopups() != 0 {
		t.Fatal("Finish did not close wizard")
	}
}

func TestCellValuePatternExposesFullContent(t *testing.T) {
	x := New()
	long := "This value is far too long to display in the cell"
	x.Sheet.SetValue("C2", long)
	item := x.DataItem("C2")
	v := item.Pattern(uia.ValuePattern).(uia.Valuer)
	if got := v.Value(item); got != long {
		t.Errorf("DataItem value = %q", got)
	}
}

func TestChartInsertEntersContext(t *testing.T) {
	x := New()
	tab := findIn(t, x.Win, "tabChartDesign")
	if tab.OnScreen() {
		t.Fatal("Chart Design visible without chart")
	}
	x.ActivateTabByName("Insert")
	click(t, x, findIn(t, x.Win, "btnRecommendedCharts"))
	gal := x.Desk.TopWindow()
	click(t, x, gal.FindByName("Pie"))
	if len(x.Sheet.Charts) != 1 || x.Sheet.Charts[0] != "Pie" {
		t.Fatalf("charts = %v", x.Sheet.Charts)
	}
	if !tab.OnScreen() {
		t.Fatal("Chart Design tab not revealed")
	}
}

func TestColumnWidthDialog(t *testing.T) {
	x := New()
	x.Sheet.SelectRange("B1:C1")
	click(t, x, findIn(t, x.Win, "btnFormatMenu"))
	menu := x.Desk.TopWindow()
	click(t, x, findIn(t, menu, "btnColumnWidth"))
	dlg := x.Desk.TopWindow()
	spn := findIn(t, dlg, "spnColWidth")
	spn.Pattern(uia.RangeValuePattern).(uia.RangeValuer).SetRangeValue(spn, 20)
	click(t, x, findIn(t, dlg, "dlgColumnWidthOK"))
	if x.Sheet.ColWidth["B"] != 20 || x.Sheet.ColWidth["C"] != 20 {
		t.Errorf("col widths = %v", x.Sheet.ColWidth)
	}
}

func TestSortStableOnTies(t *testing.T) {
	x := New(
		[]string{"Name", "Score"},
		[]string{"a", "5"},
		[]string{"b", "5"},
		[]string{"c", "3"},
	)
	x.Sheet.SortByColumn("B", true, true)
	if x.Sheet.Value("A2") != "a" || x.Sheet.Value("A3") != "b" {
		t.Errorf("tie order not stable: %v", x.Sheet.Column("A"))
	}
	if x.Sheet.Value("B4") != "3" {
		t.Errorf("sort wrong: %v", x.Sheet.Column("B"))
	}
}

// TestViewportRows checks the viewport against the grid itself: after every
// scroll, the on-screen DataItems are exactly the VisibleRows rows starting
// at ViewTop, plus row 1 while the top row is frozen.
func TestViewportRows(t *testing.T) {
	check := func(t *testing.T, x *App, what string) {
		t.Helper()
		top := x.ViewTop()
		if top < 1 || top+VisibleRows-1 > GridRows {
			t.Fatalf("%s: ViewTop %d leaves the grid", what, top)
		}
		n := 0
		for _, item := range x.gridEl.Children() {
			if item.Type() != uia.DataItemControl {
				continue
			}
			n++
			r, _, ok := ParseRef(item.Name())
			if !ok {
				t.Fatalf("%s: DataItem named %q", what, item.Name())
			}
			want := r >= top && r < top+VisibleRows || x.Sheet.FrozenTopRow && r == 1
			if item.OnScreen() != want {
				t.Errorf("%s: %s on screen = %v, want %v (ViewTop %d, frozen %v)",
					what, item.Name(), item.OnScreen(), want, top, x.Sheet.FrozenTopRow)
			}
		}
		if n != GridRows*GridCols {
			t.Fatalf("%s: grid has %d DataItems, want %d", what, n, GridRows*GridCols)
		}
	}
	for _, frozen := range []bool{false, true} {
		x := New()
		x.Sheet.FrozenTopRow = frozen
		for _, v := range []float64{0, 1, 33.3, 50, 99, 100} {
			x.ScrollTo(v)
			check(t, x, fmt.Sprintf("frozen=%v ScrollTo(%v)", frozen, v))
		}
		for row := 1; row <= GridRows; row++ {
			x.ScrollToRow(row)
			if top := x.ViewTop(); row < top || row >= top+VisibleRows {
				t.Errorf("frozen=%v ScrollToRow(%d): row outside view [%d, %d)", frozen, row, top, top+VisibleRows)
			}
			check(t, x, fmt.Sprintf("frozen=%v ScrollToRow(%d)", frozen, row))
		}
	}
}

// TestDataItemAgreesWithCell checks that DataItem resolves a reference
// exactly as Sheet.Cell does: the same refs are accepted (padded,
// lower-case and zero-padded ones included), and an accepted ref names the
// DataItem of the same cell.
func TestDataItemAgreesWithCell(t *testing.T) {
	x := New()
	for _, ref := range []string{
		"A1", "J30", "b3", " b3", "B3 ", "B03", "c007", "\tE15\n",
		"K1", "A31", "A0", "B-1", "1A", "", "A", "AA1", "B3:C4",
	} {
		item, cell := x.DataItem(ref), x.Sheet.Cell(ref)
		if (item != nil) != (cell != nil) {
			t.Errorf("%q: DataItem found=%v, Sheet.Cell found=%v", ref, item != nil, cell != nil)
			continue
		}
		if item == nil {
			continue
		}
		r, c, _ := ParseRef(ref)
		if item.Name() != Ref(r, c) {
			t.Errorf("%q: DataItem is %q, want %q", ref, item.Name(), Ref(r, c))
		}
		if item != x.DataItem(Ref(r, c)) {
			t.Errorf("%q: DataItem differs from DataItem(%q)", ref, Ref(r, c))
		}
	}
}

// Column returns the values of a column's used rows, in order.
func (s *Sheet) Column(col string) []string {
	_, cIdx, ok := ParseRef(col + "1")
	if !ok {
		return nil
	}
	var out []string
	for r := 1; r <= s.UsedRows(); r++ {
		out = append(out, s.Value(Ref(r, cIdx)))
	}
	return out
}
