package shared

import (
	"slices"
	"testing"

	"repro/internal/appkit"
	"repro/internal/office/catalog"
)

func host() (*appkit.App, appkit.Panel) {
	a := appkit.New("Host")
	tab := a.Tab("tabMain", "Main")
	return a, tab
}

func TestAddIllustrationsWiresInserts(t *testing.T) {
	a, tab := host()
	var got []string
	AddIllustrations(a, tab, "t", func(_ *appkit.App, what string) {
		got = append(got, what)
	})
	if err := a.Desk.Click(a.Win.FindByAutomationID("tPictures")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "picture" {
		t.Fatalf("inserts = %v", got)
	}
	// Shapes gallery items report shape:NAME.
	if err := a.Desk.Click(a.Win.FindByAutomationID("tShapes")); err != nil {
		t.Fatal(err)
	}
	gal := a.Desk.TopWindow()
	item := gal.FindByName("Heart (Basic Shape)")
	if item == nil {
		t.Fatal("shapes gallery incomplete")
	}
	if err := a.Desk.Click(item); err != nil {
		t.Fatal(err)
	}
	if got[len(got)-1] != "shape:Heart (Basic Shape)" {
		t.Fatalf("last insert = %q", got[len(got)-1])
	}
}

func TestAddSymbolsNilCallbackSafe(t *testing.T) {
	a, tab := host()
	AddSymbols(a, tab, "t", nil)
	if err := a.Desk.Click(a.Win.FindByAutomationID("tSymbol")); err != nil {
		t.Fatal(err)
	}
	gal := a.Desk.TopWindow()
	first := gal.FindByAutomationID("tSymbolGalItems").Children()[0]
	if err := a.Desk.Click(first); err != nil {
		t.Fatal(err) // must not panic with a nil onInsert
	}
}

func TestBackstageBlocklistsAccount(t *testing.T) {
	a, _ := host()
	saved := ""
	AddBackstage(a, func(_ *appkit.App, name string) { saved = name })
	acct := a.Win.FindByAutomationID("btnAccount")
	if acct == nil || !a.Blocked(acct) {
		t.Fatal("Account must exist and be blocklisted")
	}
	// Save As round trip.
	a.ActivateTabByName("File")
	if err := a.Desk.Click(a.Win.FindByAutomationID("btnSaveAs")); err != nil {
		t.Fatal(err)
	}
	dlg := a.Desk.TopWindow()
	ed := dlg.FindByAutomationID("saveAsName")
	if err := a.Desk.Click(ed); err != nil {
		t.Fatal(err)
	}
	if err := a.Desk.TypeText("draft"); err != nil {
		t.Fatal(err)
	}
	if err := a.Desk.Click(dlg.FindByAutomationID("dlgSaveAsOK")); err != nil {
		t.Fatal(err)
	}
	if saved != "draft" {
		t.Fatalf("saved = %q", saved)
	}
}

func TestFontControlsMarkedLargeEnum(t *testing.T) {
	a, tab := host()
	font, size := AddFontControls(tab, "t", nil, nil)
	list := font.FindByAutomationID("tFontNameList")
	if list == nil || !list.LargeEnum() {
		t.Fatal("font list must be a large enumeration")
	}
	szList := size.FindByAutomationID("tFontSizeList")
	if szList == nil || szList.LargeEnum() {
		t.Fatal("size list must not be a large enumeration")
	}
	_ = a
}

func TestBordersMenuPicks(t *testing.T) {
	a, tab := host()
	var picked string
	AddBordersMenu(a, tab, "t", func(_ *appkit.App, s string) { picked = s })
	if err := a.Desk.Click(a.Win.FindByAutomationID("tBorders")); err != nil {
		t.Fatal(err)
	}
	menu := a.Desk.TopWindow()
	if err := a.Desk.Click(menu.FindByName("All Borders")); err != nil {
		t.Fatal(err)
	}
	if picked != "All Borders" {
		t.Fatalf("picked = %q", picked)
	}
}

// TestGalleryNamesShared: the Icons and Symbol names are generated once per
// process and match the catalog's lists.
func TestGalleryNamesShared(t *testing.T) {
	for _, c := range []struct {
		name       string
		list, want func() []string
	}{
		{"icons", icons, func() []string { return catalog.Icons(IconCount) }},
		{"symbols", symbols, func() []string { return catalog.Symbols(SymbolCount) }},
	} {
		a, b := c.list(), c.list()
		if len(a) == 0 || &a[0] != &b[0] {
			t.Errorf("%s: repeated calls do not share one list", c.name)
		}
		if !slices.Equal(a, c.want()) {
			t.Errorf("%s: cached names differ from the catalog's", c.name)
		}
	}
}
