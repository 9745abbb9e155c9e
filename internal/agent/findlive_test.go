package agent

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/forest"
	"repro/internal/office/word"
	"repro/internal/osworld"
	"repro/internal/uia"
)

// TestFindLiveReachesUnbuiltLists: staleness injection renames controls by
// GID anywhere on the application's surface, opened or not. Targets inside
// a gallery that was never opened (Icons) and a combo box that was never
// expanded (Font) must still be found and renamed, exactly as when every
// item was built with the application.
func TestFindLiveReachesUnbuiltLists(t *testing.T) {
	// GIDs come from a fully built instance, as the offline model's do.
	ref := word.New()
	ref.MaterializeAll()
	gidOf := func(root *uia.Element, name string) string {
		t.Helper()
		e := root.Find(func(e *uia.Element) bool { return e.Name() == name })
		if e == nil {
			t.Fatalf("%q not found", name)
		}
		return e.ControlID()
	}
	var icons *uia.Element
	for _, w := range ref.AllPopupWindows() {
		if w.AutomationID() == "wIconsGal" {
			icons = w
		}
	}
	if icons == nil {
		t.Fatal("Icons gallery missing")
	}
	fontCombo := ref.Win.FindByAutomationID("wFontName")
	for _, gid := range []string{
		gidOf(icons, "Animals icon 7"),
		gidOf(fontCombo, "Georgia Light"),
	} {
		app := word.New()
		d := &driver{env: &osworld.Env{App: app.App}, rng: rand.New(rand.NewSource(1))}
		d.renameLive(&forest.Node{GID: gid})
		if el := d.findLive(&forest.Node{GID: gid}); el != nil {
			t.Errorf("%s still present after rename", gid)
		}
		path := gid[strings.LastIndexByte(gid, '|')+1:]
		renamed := 0
		for _, root := range append([]*uia.Element{app.Win}, app.AllPopupWindows()...) {
			root.Walk(func(e *uia.Element) bool {
				if strings.HasPrefix(e.Name(), "Untitled ") && strings.HasSuffix(e.ControlID(), "|"+path) {
					renamed++
				}
				return true
			})
		}
		if renamed != 1 {
			t.Errorf("%s: %d renamed siblings under %s, want 1", gid, renamed, path)
		}
	}
}
