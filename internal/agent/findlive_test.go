package agent

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/appkit"
	"repro/internal/forest"
	"repro/internal/office/word"
	"repro/internal/osworld"
	"repro/internal/uia"
	"repro/internal/ung"
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
		d.renameLive(&forest.Node{Node: &ung.Node{ID: gid}})
		if el := d.findLive(&forest.Node{Node: &ung.Node{ID: gid}}); el != nil {
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

// TestFindLiveMatchesFullWalk: descending along a node's ancestor path
// finds the element the full search found — the first preorder match in
// the main window, then in AllPopupWindows order, over a fully built
// surface — for every node of every catalog model, and builds no deferred
// list off the path. Elements are compared by their position: root and
// child indexes.
func TestFindLiveMatchesFullWalk(t *testing.T) {
	m := sharedModels(t)
	for _, app := range AppNames() {
		model := m.ByApp[app]
		ref := Factories()[app]()
		ref.MaterializeAll()
		roots := append([]*uia.Element{ref.Win}, ref.AllPopupWindows()...)
		live := Factories()[app]()
		d := &driver{env: &osworld.Env{App: live}}
		// A control outside every deferred list builds none of them.
		fresh := countAll(live)
		if d.findLive(model.Node(1)) == nil || countAll(live) != fresh {
			t.Errorf("%s: finding %s built deferred lists (%d elements, %d fresh)", app, model.Node(1).ID, countAll(live), fresh)
		}
		for id := 0; id < model.NodeCount(); id++ {
			node := model.Node(id)
			if node.ID == "" {
				continue
			}
			var want *uia.Element
			for _, root := range roots {
				if want = root.Find(func(e *uia.Element) bool { return e.ControlID() == node.ID }); want != nil {
					break
				}
			}
			got := d.findLive(node)
			if (got == nil) != (want == nil) || got != nil && position(got, live) != position(want, ref) {
				t.Fatalf("%s node %d %s: found %v at %q, full walk %v at %q",
					app, id, node.ID, got, position(got, live), want, position(want, ref))
			}
		}
	}
}

// position renders e's place in a's surface: the index of its root among
// the main window and AllPopupWindows, then the child index at each level.
func position(e *uia.Element, a *appkit.App) string {
	if e == nil {
		return ""
	}
	var idx []string
	for ; e.Parent() != nil; e = e.Parent() {
		idx = append(idx, fmt.Sprint(slices.Index(e.Parent().Children(), e)))
	}
	root := slices.Index(append([]*uia.Element{a.Win}, a.AllPopupWindows()...), e)
	slices.Reverse(idx)
	return fmt.Sprintf("%d:%s", root, strings.Join(idx, "/"))
}

// countAll counts the elements a's surface holds now.
func countAll(a *appkit.App) int {
	n := 0
	for _, root := range append([]*uia.Element{a.Win}, a.AllPopupWindows()...) {
		n += root.Count()
	}
	return n
}

// TestDeepestVisibleLiveMatchesIDMap: the one-pass chain match must agree
// with the id map it replaced, where the first on-screen element carrying
// an id wins even when it is disabled and a later one is not, and window
// roots never match. Chains mix on-screen ids, window-root ids, duplicates
// and absent ids, and run past the stack array's length.
func TestDeepestVisibleLiveMatchesIDMap(t *testing.T) {
	app := word.New()
	first := uia.NewElement("btnDup", "Dup", uia.ButtonControl)
	first.SetEnabled(false)
	app.Win.AddChild(first)
	app.Win.AddChild(uia.NewElement("btnDup", "Dup", uia.ButtonControl))
	d := &driver{env: &osworld.Env{App: app.App}}

	var ids []string
	for _, e := range app.Desk.Snapshot(nil) {
		ids = append(ids, e.ControlID())
	}
	ids = append(ids, "absent|Button|nowhere")
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		chain := make([]*forest.Node, 1+rng.Intn(24))
		for i := range chain {
			chain[i] = &forest.Node{Node: &ung.Node{ID: ids[rng.Intn(len(ids))]}}
		}
		if trial%4 == 0 {
			chain[len(chain)-1].ID = first.ControlID()
		}
		gotI, gotEl := d.deepestVisibleLive(chain)
		wantI, wantEl := deepestVisibleLiveByMap(app.Desk.Snapshot(nil), chain)
		if gotI != wantI || gotEl != wantEl {
			t.Fatalf("trial %d: deepestVisibleLive = (%d, %v), id map gives (%d, %v)", trial, gotI, gotEl, wantI, wantEl)
		}
	}
}

// deepestVisibleLiveByMap is the reference: index the screen by control id,
// first occurrence wins, then take the deepest enabled chain step.
func deepestVisibleLiveByMap(screen []*uia.Element, chain []*forest.Node) (int, *uia.Element) {
	byID := make(map[string]*uia.Element)
	for _, e := range screen {
		if e.Parent() == nil {
			continue
		}
		if _, dup := byID[e.ControlID()]; !dup {
			byID[e.ControlID()] = e
		}
	}
	for i := len(chain) - 1; i >= 0; i-- {
		if el, ok := byID[chain[i].ID]; ok && el.Enabled() {
			return i, el
		}
	}
	return -1, nil
}
