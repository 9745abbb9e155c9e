package ung

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/appkit"
	"repro/internal/office/excel"
	"repro/internal/office/slides"
	"repro/internal/office/word"
)

// demoApp builds a small application with every structural feature the
// ripper must handle: tabs, nested menus, a shared popup (merge nodes), a
// dialog, a ribbon-collapse cycle, a blocklisted control, and a context tab.
func demoApp() *appkit.App {
	a := appkit.New("Demo")
	picker := a.ColorPicker("clr", "Colors", func(*appkit.App, string) {})

	home := a.Tab("tabHome", "Home")
	font := home.Group("grpFont", "Font")
	font.ToggleButton("btnBold", "Bold", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	font.MenuButton("btnFontColor", "Font Color", picker, func(*appkit.App) any { return "font" })
	font.MenuButton("btnHighlight", "Highlight", picker, func(*appkit.App) any { return "hl" })

	ins := a.Tab("tabInsert", "Insert")
	dlg := a.NewDialog("dlgTable", "Insert Table")
	dlg.Panel().Spinner("spnRows", "Rows", 1, 10, 2, nil)
	dlg.AddOKCancel(nil)
	ins.Group("grpTables", "Tables").DialogButton("btnTable", "Table", dlg, nil)

	ext := ins.Group("grpExt", "External").Button("btnAccount", "Account", nil)
	a.Block(ext.ControlID())

	a.RegisterContext(appkit.Context{Name: "thing-selected"})
	ct := a.ContextTab("tabThing", "Thing Format", "thing-selected")
	ct.Group("grpThing", "Thing").Button("btnThingBorder", "Thing Border", nil)

	a.AddRibbonCollapse()
	return a
}

func ripDemo(t *testing.T) (*Graph, Stats) {
	t.Helper()
	g, st, err := Rip(demoApp(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g, st
}

func TestRipDiscoversTabContent(t *testing.T) {
	g, _ := ripDemo(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Home content hangs beneath the active tab item (root init rule),
	// through its UI containers: tabHome → panel → group → Bold.
	bold := findNode(g, "btnBold|")
	if bold == nil {
		t.Fatal("Bold not discovered")
	}
	cur := g.lookup(bold.ID)
	foundTab := false
	for i := 0; i < 10 && len(g.In(cur)) > 0; i++ {
		cur = g.In(cur)[0]
		if strings.HasPrefix(g.Nodes[cur].ID, "tabHome|") {
			foundTab = true
			break
		}
	}
	if !foundTab {
		t.Errorf("Bold does not hang beneath the Home tab item")
	}
	// Insert content is revealed by clicking the Insert tab.
	if findNode(g, "spnRows|") == nil {
		t.Fatal("dialog content not discovered (nested reveal)")
	}
}

func TestRipMergeNodes(t *testing.T) {
	g, _ := ripDemo(t)
	// The shared picker's body is revealed by both openers: it is the
	// merge node, and its internal hierarchy (panes → cells) is preserved
	// beneath it rather than flattened under each opener.
	body := findNode(g, "clrBody|")
	var blue *Node
	for i := range g.Nodes {
		if n := &g.Nodes[i]; n.Name == "Blue" && strings.Contains(n.ID, "clrStd") {
			blue = n
		}
	}
	if body == nil || blue == nil {
		t.Fatal("picker body or Blue cell not discovered")
	}
	bodyIn, blueIn := g.In(g.lookup(body.ID)), g.In(g.lookup(blue.ID))
	if len(bodyIn) < 2 {
		t.Fatalf("picker body in-degree = %d, want ≥ 2 (merge node)", len(bodyIn))
	}
	if len(blueIn) != 1 || !strings.Contains(g.Nodes[blueIn[0]].ID, "clrStd") {
		t.Fatalf("Blue should hang beneath the Standard Colors pane, in = %v", blueIn)
	}
	if len(g.MergeNodes()) == 0 {
		t.Fatal("no merge nodes found")
	}
}

func TestRipCycle(t *testing.T) {
	g, _ := ripDemo(t)
	// Collapse → Pin → Collapse is a 2-cycle.
	collapse, pin := findNode(g, "ribbonCollapse|"), findNode(g, "ribbonPin|")
	if collapse == nil || pin == nil {
		t.Fatal("ribbon collapse pair not discovered")
	}
	if !hasEdge(g, collapse, pin) || !hasEdge(g, pin, collapse) {
		t.Fatal("collapse/pin cycle not captured")
	}
}

func TestRipBlocklist(t *testing.T) {
	g, st := ripDemo(t)
	if st.Blocked == 0 {
		t.Error("blocklisted control was not skipped")
	}
	for i := range int32(len(g.Nodes)) {
		if strings.HasPrefix(g.Nodes[i].ID, "btnAccount|") && len(g.Out(i)) > 0 {
			t.Error("blocklisted control has out-edges (it was clicked)")
		}
	}
}

func TestRipContexts(t *testing.T) {
	g, st := ripDemo(t)
	if st.Contexts != 2 {
		t.Fatalf("contexts = %d, want 2", st.Contexts)
	}
	thing := findNode(g, "btnThingBorder|")
	if thing == nil {
		t.Fatal("context-tab content not discovered")
	}
	if thing.Context != "thing-selected" {
		t.Errorf("context = %q", thing.Context)
	}
}

func TestRipLeavesAndNavigation(t *testing.T) {
	g, _ := ripDemo(t)
	for i := range int32(len(g.Nodes)) {
		n := &g.Nodes[i]
		if strings.HasPrefix(n.ID, "btnBold|") && len(g.Out(i)) != 0 {
			t.Error("Bold (functional) should be a leaf")
		}
		if strings.HasPrefix(n.ID, "btnFontColor|") && len(g.Out(i)) == 0 {
			t.Error("Font Color (navigation) should not be a leaf")
		}
	}
}

func TestRipDeterministic(t *testing.T) {
	g1, _ := ripDemo(t)
	g2, _ := ripDemo(t)
	if g1.NodeCount() != g2.NodeCount() || g1.EdgeCount() != g2.EdgeCount() {
		t.Fatalf("rip not deterministic: %d/%d vs %d/%d nodes/edges",
			g1.NodeCount(), g1.EdgeCount(), g2.NodeCount(), g2.EdgeCount())
	}
	for i := range g1.Nodes {
		if a, b := g1.Nodes[i].ID, g2.Nodes[i].ID; a != b {
			t.Fatalf("discovery order diverges at %d: %q vs %q", i, a, b)
		}
	}
}

func TestRipNodeLimit(t *testing.T) {
	_, _, err := Rip(demoApp(), Config{MaxNodes: 10})
	if err == nil {
		t.Fatal("node limit not enforced")
	}
}

// Office-scale integration rips; skipped in -short mode.

func TestRipWord(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale rip")
	}
	g, st, err := Rip(word.New().App, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() < 3000 {
		t.Errorf("word UNG has %d nodes, want > 3000", g.NodeCount())
	}
	if len(g.MergeNodes()) < 2 {
		t.Errorf("word UNG has %d merge nodes, want ≥ 2 (shared picker + font dialog)", len(g.MergeNodes()))
	}
	if d := g.MaxDepth(); d < 8 {
		t.Errorf("word UNG depth = %d, want ≥ 8 (paper: >10)", d)
	}
	t.Logf("word UNG: %d nodes, %d edges, depth %d, %d merge nodes, simulated %s",
		g.NodeCount(), g.EdgeCount(), g.MaxDepth(), len(g.MergeNodes()), st.SimulatedTime)
}

func TestRipExcel(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale rip")
	}
	g, st, err := Rip(excel.New().App, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() < 3000 {
		t.Errorf("excel UNG has %d nodes, want > 3000", g.NodeCount())
	}
	t.Logf("excel UNG: %d nodes, %d edges, depth %d, %d merge nodes, simulated %s",
		g.NodeCount(), g.EdgeCount(), g.MaxDepth(), len(g.MergeNodes()), st.SimulatedTime)
}

func TestRipSlides(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale rip")
	}
	g, st, err := Rip(slides.New(12).App, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() < 2800 {
		t.Errorf("slides UNG has %d nodes, want > 2800", g.NodeCount())
	}
	t.Logf("slides UNG: %d nodes, %d edges, depth %d, %d merge nodes, simulated %s",
		g.NodeCount(), g.EdgeCount(), g.MaxDepth(), len(g.MergeNodes()), st.SimulatedTime)
}

// findNode returns the last node in discovery order whose id starts with
// prefix, or nil.
func findNode(g *Graph, prefix string) *Node {
	var found *Node
	for i := range g.Nodes {
		if strings.HasPrefix(g.Nodes[i].ID, prefix) {
			found = &g.Nodes[i]
		}
	}
	return found
}

func hasEdge(g *Graph, from, to *Node) bool {
	return slices.Contains(g.Out(g.lookup(from.ID)), g.lookup(to.ID))
}
