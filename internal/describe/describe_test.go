package describe

import (
	"strings"
	"testing"

	"repro/internal/forest"
	"repro/internal/uia"
	"repro/internal/ung"
)

// fixtureForest builds a small forest by hand:
//
//	root ── Home(tab) ── Font(group) ── Bold, FontColor(ref→picker)
//	     └─ Insert(tab) ── Symbols(large enum) ── s1..s60
//	shared: picker ── Blue, Red
func fixtureForest() *forest.Forest {
	mk := func(gid, name string, t uia.ControlType, parent *forest.Node) *forest.Node {
		n := &forest.Node{Node: &ung.Node{ID: gid, Name: name, Type: t}, Parent: parent}
		if parent != nil {
			parent.Children = append(parent.Children, n)
		}
		return n
	}
	root := mk(ung.RootID, "Word", uia.WindowControl, nil)
	home := mk("tabHome", "Home", uia.TabItemControl, root)
	home.Desc = "Home ribbon tab with font and paragraph commands"
	font := mk("grpFont", "Font", uia.GroupControl, home)
	font.Desc = "Font group"
	mk("btnBold", "Bold", uia.ButtonControl, font)
	ref := mk("picker", "Font Color", uia.SplitButtonControl, font)
	ref.RefTarget = "picker"

	insert := mk("tabInsert", "Insert", uia.TabItemControl, root)
	syms := mk("grpSymbols", "Symbols", uia.ListControl, insert)
	syms.LargeEnum = true
	for i := 0; i < 60; i++ {
		s := mk("", "Sym", uia.MenuItemControl, syms)
		s.LargeEnum = true
		_ = s
	}

	picker := mk("picker", "Colors", uia.MenuControl, nil)
	mk("cellBlue", "Blue", uia.MenuItemControl, picker)
	mk("cellRed", "Red", uia.MenuItemControl, picker)

	return &forest.Forest{
		App:         "Word",
		Main:        root,
		Shared:      map[string]*forest.Node{"picker": picker},
		SharedOrder: []string{"picker"},
	}
}

func TestIDAssignmentStableAndComplete(t *testing.T) {
	f := fixtureForest()
	m := NewModel(f)
	total := f.NodeCount()
	if m.NodeCount() != total {
		t.Fatalf("ids = %d, nodes = %d", m.NodeCount(), total)
	}
	// IDs are consecutive from 0 and bijective.
	for i := 0; i < total; i++ {
		n := m.Node(i)
		if n == nil {
			t.Fatalf("id %d unassigned", i)
		}
		if m.ID(n) != i {
			t.Fatalf("id round trip failed at %d", i)
		}
	}
	if m.Node(total) != nil {
		t.Error("id past end resolved")
	}
	// Main tree ids precede shared subtree ids.
	if m.ID(f.Main) != 0 {
		t.Error("main root should be id 0")
	}
	if m.TreeOf(f.Shared["picker"]) != "picker" {
		t.Error("TreeOf wrong for shared root")
	}
}

func TestSerializeFormat(t *testing.T) {
	m := NewModel(fixtureForest())
	out := m.Serialize(FullOptions())

	if !strings.HasPrefix(out, "main-tree:\n") {
		t.Error("missing main tree header")
	}
	if !strings.Contains(out, "Bold(Button)_") {
		t.Errorf("Bold not serialized: %s", out)
	}
	// Reference node carries the ref marker with the subtree root's id.
	picker := m.Forest.Shared["picker"]
	wantRef := "(ref=" // exact id follows
	if !strings.Contains(out, wantRef) {
		t.Error("missing ref marker")
	}
	if !strings.Contains(out, "shared-subtree-") {
		t.Error("missing shared subtree header")
	}
	if !strings.Contains(out, "Blue(MenuItem)_") {
		t.Error("shared subtree content missing")
	}
	_ = picker
	// Bracket balance.
	if strings.Count(out, "[") != strings.Count(out, "]") {
		t.Error("unbalanced brackets")
	}
	// Descriptions attach to key-type/navigation nodes.
	if !strings.Contains(out, "Home(TabItem)(Home ribbon tab") {
		t.Errorf("description not attached: %s", out)
	}
}

func TestCoreTopologyPrunesLargeEnums(t *testing.T) {
	m := NewModel(fixtureForest())
	core := m.Serialize(CoreOptions())
	full := m.Serialize(FullOptions())

	if strings.Contains(core, "Sym(MenuItem)") {
		t.Error("core topology contains large enumeration items")
	}
	if strings.Contains(core, "Symbols(List)") {
		t.Error("core topology contains the large enumeration container")
	}
	if !strings.Contains(full, "Sym(MenuItem)") {
		t.Error("full topology lost large enumeration items")
	}
	// Elision marker signals further_query expansion: the pruned container
	// shows up as one elided child of Insert.
	if !strings.Contains(core, "Insert(TabItem)_5[+1]") {
		t.Errorf("missing elision marker: %s", core)
	}
	if len(core) >= len(full) {
		t.Error("core topology not smaller than full")
	}
}

func TestDepthLimit(t *testing.T) {
	// Chain deeper than the limit.
	root := &forest.Node{Node: &ung.Node{ID: ung.RootID, Name: "App", Type: uia.WindowControl}}
	cur := root
	for i := 0; i < 10; i++ {
		n := &forest.Node{Node: &ung.Node{ID: "", Name: "Level", Type: uia.ButtonControl}, Parent: cur}
		cur.Children = append(cur.Children, n)
		cur = n
	}
	f := &forest.Forest{App: "App", Main: root, Shared: map[string]*forest.Node{}}
	m := NewModel(f)
	out := m.Serialize(Options{MaxDepth: 3})
	if got := strings.Count(out, "Level(Button)"); got != 2 {
		t.Errorf("levels serialized = %d, want 2 (depth limit 3)", got)
	}
	if !strings.Contains(out, "+1") {
		t.Error("missing elision marker at depth limit")
	}
}

func TestSerializeSubtreeFurtherQuery(t *testing.T) {
	m := NewModel(fixtureForest())
	var symsID int
	m.Forest.Main.Walk(func(n *forest.Node) bool {
		if n.Name == "Symbols" {
			symsID = m.ID(n)
		}
		return true
	})
	out, err := m.SerializeSubtree(symsID)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "Sym(MenuItem)") != 60 {
		t.Errorf("targeted expansion missing items:\n%s", out)
	}
	if _, err := m.SerializeSubtree(99999); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestManualExclusion(t *testing.T) {
	m := NewModel(fixtureForest())
	out := m.Serialize(Options{IncludeLargeEnums: true, Exclude: map[string]bool{"tabInsert": true}})
	if strings.Contains(out, "Insert(TabItem)") {
		t.Error("excluded node serialized")
	}
	if strings.Contains(out, "Sym(MenuItem)") {
		t.Error("children of excluded node serialized")
	}
}

func TestEscapeStructuralCharacters(t *testing.T) {
	root := &forest.Node{Node: &ung.Node{ID: ung.RootID, Name: "App", Type: uia.WindowControl}}
	odd := &forest.Node{Node: &ung.Node{ID: "x", Name: "Ion (Dark), v_2 [beta]", Type: uia.ButtonControl}, Parent: root}
	root.Children = append(root.Children, odd)
	f := &forest.Forest{App: "App", Main: root, Shared: map[string]*forest.Node{}}
	m := NewModel(f)
	out := m.Serialize(FullOptions())
	if strings.Contains(out, "(Dark)") || strings.Contains(out, "[beta]") || strings.Contains(out, "v_2") {
		t.Errorf("structural characters leaked: %s", out)
	}
	if want := "Ion ⟨Dark⟩; v-2 ⟦beta⟧(Button)_1"; !strings.Contains(out, want) {
		t.Errorf("escaped name: want %q in %s", want, out)
	}
	// The only underscores left are id markers: ControlsIn counts nodes.
	if got := ControlsIn(out); got != 2 {
		t.Errorf("ControlsIn = %d, want 2", got)
	}
}

func TestTokensPerControl(t *testing.T) {
	m := NewModel(fixtureForest())
	out := m.Serialize(FullOptions())
	controls := ControlsIn(out)
	tokens := Tokens(out)
	perControl := float64(tokens) / float64(controls)
	// The paper measures ≈15 tokens per control; the heuristic should land
	// in the same regime.
	if perControl < 3 || perControl > 30 {
		t.Errorf("tokens per control = %.1f, outside plausible band", perControl)
	}
}

func TestFindLeafByName(t *testing.T) {
	m := NewModel(fixtureForest())
	n := m.FindLeafByName("bold")
	if n == nil || n.Name != "Bold" {
		t.Fatal("FindLeafByName failed")
	}
	if m.FindLeafByName("No Such Control") != nil {
		t.Error("found nonexistent control")
	}
	// Leaves only: Font (group with children) must not match.
	if m.FindLeafByName("Font") != nil {
		t.Error("non-leaf matched")
	}
}

// TestIDsFollowForestOrder: ids are positions in forest order (main tree
// preorder, then shared subtrees in SharedOrder), TreeOf names the tree
// each id falls in, and a node of any other forest, numbered or not, has no
// id and lies in no tree.
func TestIDsFollowForestOrder(t *testing.T) {
	f := fixtureForest()
	m := NewModel(f)
	next := 0
	for _, tree := range []struct {
		root *forest.Node
		id   string
	}{{f.Main, ""}, {f.Shared["picker"], "picker"}} {
		tree.root.Walk(func(n *forest.Node) bool {
			if got := m.ID(n); got != next {
				t.Errorf("%q: id %d, want %d", n.Name, got, next)
			}
			if got := m.TreeOf(n); got != tree.id {
				t.Errorf("%q: TreeOf %q, want %q", n.Name, got, tree.id)
			}
			next++
			return true
		})
	}

	other := fixtureForest()
	NewModel(other)
	foreign := []*forest.Node{nil, {Node: &ung.Node{Name: "never numbered"}}}
	other.Main.Walk(func(n *forest.Node) bool { foreign = append(foreign, n); return true })
	foreign = append(foreign, other.Shared["picker"], other.Shared["picker"].Children[1])
	for _, n := range foreign {
		if got := m.ID(n); got != -1 {
			t.Errorf("foreign node %v: id %d, want -1", n, got)
		}
		if got := m.TreeOf(n); got != "" {
			t.Errorf("foreign node %v: TreeOf %q, want \"\"", n, got)
		}
	}
}
