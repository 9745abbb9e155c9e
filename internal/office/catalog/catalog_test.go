package catalog

import "testing"

func TestFontsScale(t *testing.T) {
	fonts := Fonts()
	if len(fonts) != len(FontFamilies)*len(FontVariants) {
		t.Fatalf("fonts = %d", len(fonts))
	}
	if len(fonts) < 300 {
		t.Errorf("font list too small for a large enumeration: %d", len(fonts))
	}
	seen := map[string]bool{}
	for _, f := range fonts {
		if seen[f] {
			t.Fatalf("duplicate font %q", f)
		}
		seen[f] = true
	}
}

func TestGeneratedListsSized(t *testing.T) {
	if got := len(Symbols(100)); got != 100 {
		t.Errorf("Symbols(100) = %d", got)
	}
	if got := len(Icons(250)); got != 250 {
		t.Errorf("Icons(250) = %d", got)
	}
	if got := len(PageNumberFormats()); got != 60 {
		t.Errorf("PageNumberFormats = %d, want 4 positions × 15 styles", got)
	}
}

func TestExcelFunctionsGrouped(t *testing.T) {
	fns := ExcelFunctions()
	for _, cat := range []string{"Financial", "Logical", "Text", "Date & Time",
		"Lookup & Reference", "Math & Trig", "Statistical"} {
		if len(fns[cat]) == 0 {
			t.Errorf("category %q empty", cat)
		}
	}
	if len(fns["Financial"]) < 48 {
		t.Error("Financial should be a large enumeration")
	}
	if len(fns["Logical"]) > 48 {
		t.Error("Logical should stay below the large-enumeration threshold")
	}
}

func TestNoEmptyNames(t *testing.T) {
	lists := [][]string{
		Fonts(), FontSizes, WordStyles, ThemeNames, ShapeNames(),
		NumberFormats, CellStyles, ChartTypes, Transitions, Animations(),
		SlideLayouts, BorderStyles, Languages(), WordArtStyles(),
	}
	for i, list := range lists {
		for _, s := range list {
			if s == "" {
				t.Fatalf("list %d contains an empty name", i)
			}
		}
	}
}

// TestGeneratedListsShared: the generated lists are built once per process;
// every call returns the same read-only slice.
func TestGeneratedListsShared(t *testing.T) {
	for _, c := range []struct {
		name string
		list func() []string
	}{
		{"Fonts", Fonts}, {"ShapeNames", ShapeNames}, {"Animations", Animations},
		{"WordArtStyles", WordArtStyles}, {"PageNumberFormats", PageNumberFormats},
		{"Languages", Languages},
	} {
		a, b := c.list(), c.list()
		if len(a) == 0 || len(a) != len(b) || &a[0] != &b[0] {
			t.Errorf("%s: repeated calls do not share one list", c.name)
		}
	}
}
