package word

import (
	"testing"

	"repro/internal/uia"
)

func click(t *testing.T, w *App, el *uia.Element) {
	t.Helper()
	if el == nil {
		t.Fatal("click target is nil")
	}
	if err := w.Desk.Click(el); err != nil {
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

func TestScale(t *testing.T) {
	w := New()
	total := w.Win.Count()
	for _, p := range w.Desk.Windows() {
		if p != w.Win {
			total += p.Count()
		}
	}
	// Count popup templates too (they are off-desktop until opened).
	// A realistic Word exposes >4K controls (paper §5.2).
	all := countAllControls(w)
	if all < 3800 {
		t.Errorf("word exposes %d controls, want > 3800", all)
	}
	t.Logf("word controls: main window %d, total incl. popups %d", total, all)
}

func countAllControls(w *App) int {
	w.MaterializeAll() // count the gallery and combo items too
	n := w.Win.Count()
	seen := map[*uia.Element]bool{w.Win: true}
	for _, p := range w.AllPopupWindows() {
		if !seen[p] {
			n += p.Count()
			seen[p] = true
		}
	}
	return n
}

func TestFontColorViaSelection(t *testing.T) {
	w := New()
	w.Doc.SelectParas(2, 3)
	click(t, w, findIn(t, w.Win, "btnFontColor"))
	picker := w.Desk.TopWindow()
	blue := picker.FindByName("Blue")
	click(t, w, blue)
	if w.Doc.Paras[1].FontColor != "Blue" || w.Doc.Paras[2].FontColor != "Blue" {
		t.Errorf("font color not applied: %+v", w.Doc.Paras[1])
	}
	if w.Doc.Paras[0].FontColor == "Blue" {
		t.Error("color leaked outside selection")
	}
	if w.Doc.Paras[1].UnderlineColor == "Blue" {
		t.Error("font-color path changed underline color (path semantics broken)")
	}
}

func TestUnderlineColorPathSemantics(t *testing.T) {
	w := New()
	w.Doc.SelectParas(1, 1)
	// Navigate Underline → Underline Color → Blue: same picker, different
	// binding than Font Color.
	click(t, w, findIn(t, w.Win, "btnUnderline"))
	menu := w.Desk.TopWindow()
	click(t, w, findIn(t, menu, "btnUnderlineColor"))
	picker := w.Desk.TopWindow()
	click(t, w, picker.FindByName("Blue"))
	p := w.Doc.Paras[0]
	if p.UnderlineColor != "Blue" || !p.Underline {
		t.Errorf("underline color not applied: %+v", p)
	}
	if p.FontColor == "Blue" {
		t.Error("underline path changed font color")
	}
}

func TestNoSelectionIsNoOp(t *testing.T) {
	w := New()
	click(t, w, findIn(t, w.Win, "btnBold"))
	for _, p := range w.Doc.Paras {
		if p.Bold {
			t.Fatal("bold applied without selection")
		}
	}
}

func TestReplaceAllAndDynamicRename(t *testing.T) {
	w := New("alpha beta alpha", "gamma alpha")
	click(t, w, findIn(t, w.Win, "btnReplace"))
	dlg := w.Desk.TopWindow()

	fw := findIn(t, dlg, "edFindWhat")
	click(t, w, fw)
	if err := w.Desk.TypeText("alpha"); err != nil {
		t.Fatal(err)
	}
	rw := findIn(t, dlg, "edReplaceWith")
	click(t, w, rw)
	if err := w.Desk.TypeText("omega"); err != nil {
		t.Fatal(err)
	}
	click(t, w, findIn(t, dlg, "btnReplaceAll"))
	if w.Doc.CountOccurrences("alpha") != 0 || w.Doc.CountOccurrences("omega") != 3 {
		t.Errorf("replace all failed: %q", w.Doc.Body())
	}

	// Typing "+1" into Find what renames Find Next to Go To (paper §6).
	if w.findBtn.Name() != "Find Next" {
		t.Fatalf("initial name = %q", w.findBtn.Name())
	}
	click(t, w, fw)
	if err := w.Desk.TypeText("+1"); err != nil {
		t.Fatal(err)
	}
	if w.findBtn.Name() != "Go To" {
		t.Errorf("dynamic rename missing: %q", w.findBtn.Name())
	}
	click(t, w, fw)
	if err := w.Desk.TypeText("plain"); err != nil {
		t.Fatal(err)
	}
	if w.findBtn.Name() != "Find Next" {
		t.Errorf("rename did not revert: %q", w.findBtn.Name())
	}
}

func TestPictureContext(t *testing.T) {
	w := New()
	tab := findIn(t, w.Win, "tabPictureFormat")
	if tab.OnScreen() {
		t.Fatal("Picture Format visible without image")
	}
	// Insert a picture via Insert → Pictures.
	w.ActivateTabByName("Insert")
	click(t, w, findIn(t, w.Win, "wPictures"))
	if !w.PictureSelected || !tab.OnScreen() {
		t.Fatal("inserting a picture should select it and reveal the tab")
	}
	click(t, w, tab)
	click(t, w, findIn(t, w.Win, "btnPictureBorder"))
	picker := w.Desk.TopWindow()
	click(t, w, picker.FindByName("Red"))
	if w.PictureBorder != "Red" {
		t.Errorf("picture border = %q", w.PictureBorder)
	}
}

func TestOrientationAndTable(t *testing.T) {
	w := New()
	w.ActivateTabByName("Layout")
	click(t, w, findIn(t, w.Win, "btnOrientation"))
	menu := w.Desk.TopWindow()
	click(t, w, menu.FindByName("Landscape"))
	if w.Doc.Orientation != "Landscape" {
		t.Errorf("orientation = %q", w.Doc.Orientation)
	}

	w.ActivateTabByName("Insert")
	click(t, w, findIn(t, w.Win, "btnTable"))
	grid := w.Desk.TopWindow()
	click(t, w, grid.FindByName("3x2 Table"))
	tbl, ok := w.Doc.LastTable()
	if !ok || tbl.Rows != 2 || tbl.Cols != 3 {
		t.Errorf("table = %+v ok=%v", tbl, ok)
	}
}

func TestLineSpacingMenu(t *testing.T) {
	w := New()
	w.Doc.SelectParas(1, 2)
	click(t, w, findIn(t, w.Win, "btnLineSpacing"))
	menu := w.Desk.TopWindow()
	click(t, w, menu.FindByName("1.50"))
	if w.Doc.Paras[0].LineSpacing != 1.5 || w.Doc.Paras[1].LineSpacing != 1.5 {
		t.Errorf("line spacing not applied: %v", w.Doc.Paras[0].LineSpacing)
	}
}

func TestSelectionViaTextPattern(t *testing.T) {
	w := New("one", "two", "three")
	tp := w.Doc.TextPattern()
	// Paragraph 2 occupies line 3 (blank separators between paragraphs).
	if err := tp.SelectParagraphs(w.docEl, 2, 3); err != nil {
		t.Fatal(err)
	}
	if w.Doc.SelStart != 2 || w.Doc.SelEnd != 3 {
		t.Errorf("selection = [%d,%d], want [2,3]", w.Doc.SelStart, w.Doc.SelEnd)
	}
	sel := w.Doc.Selected()
	if len(sel) != 2 || sel[0].Text != "two" {
		t.Errorf("selected paras wrong: %v", sel)
	}
}

func TestSaveAsThroughBackstage(t *testing.T) {
	w := New()
	w.ActivateTabByName("File")
	click(t, w, findIn(t, w.Win, "btnSaveAs"))
	dlg := w.Desk.TopWindow()
	ed := findIn(t, dlg, "saveAsName")
	click(t, w, ed)
	if err := w.Desk.TypeText("report_final"); err != nil {
		t.Fatal(err)
	}
	click(t, w, findIn(t, dlg, "dlgSaveAsOK"))
	if w.Doc.Saved != "report_final" {
		t.Errorf("saved = %q", w.Doc.Saved)
	}
}

func TestBlocklistContainsAccount(t *testing.T) {
	w := New()
	if w.BlocklistSize() == 0 {
		t.Fatal("word should blocklist at least the Account control")
	}
}
