package uia

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func newTree() (*Element, *Element, *Element, *Element) {
	root := NewElement("win", "Word", WindowControl)
	tab := NewElement("tabHome", "Home", TabItemControl)
	grp := NewElement("", "Font", GroupControl)
	btn := NewElement("btnBold", "Bold", ButtonControl)
	root.AddChild(tab)
	tab.AddChild(grp)
	grp.AddChild(btn)
	return root, tab, grp, btn
}

func TestControlTypeString(t *testing.T) {
	cases := []struct {
		ct   ControlType
		want string
	}{
		{ButtonControl, "Button"},
		{TabItemControl, "TabItem"},
		{DataItemControl, "DataItem"},
		{SplitButtonControl, "SplitButton"},
		{AppBarControl, "AppBar"},
	}
	for _, c := range cases {
		if got := c.ct.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int(c.ct), got, c.want)
		}
		back, ok := ParseControlType(c.want)
		if !ok || back != c.ct {
			t.Errorf("ParseControlType(%q) = %v, %v", c.want, back, ok)
		}
	}
	if _, ok := ParseControlType("Nonsense"); ok {
		t.Error("ParseControlType accepted unknown name")
	}
}

func TestNumControlTypesAndPatterns(t *testing.T) {
	if NumControlTypes != 41 {
		t.Errorf("NumControlTypes = %d, want 41 (UIA)", NumControlTypes)
	}
	if NumPatterns != 34 {
		t.Errorf("NumPatterns = %d, want 34 (UIA)", NumPatterns)
	}
}

func TestControlIDSynthesis(t *testing.T) {
	_, _, grp, btn := newTree()
	got := btn.ControlID()
	want := "btnBold|Button|win/tabHome/Font"
	if got != want {
		t.Errorf("ControlID = %q, want %q", got, want)
	}
	// Group has no automation id: primary falls back to name.
	if id := grp.ControlID(); !strings.HasPrefix(id, "Font|Group|") {
		t.Errorf("group ControlID = %q, want Font|Group| prefix", id)
	}
}

func TestControlIDUnnamedFallback(t *testing.T) {
	e := NewElement("", "", PaneControl)
	if id := e.ControlID(); !strings.HasPrefix(id, "[Unnamed]|Pane|") {
		t.Errorf("ControlID = %q, want [Unnamed] fallback", id)
	}
}

func TestRenameInvalidatesDescendantIDs(t *testing.T) {
	_, tab, grp, btn := newTree()
	before := btn.ControlID()
	// grp has no automation id, so its primary id is its name; renaming it
	// must invalidate and change descendant identifiers.
	grp.SetName("Typeface")
	after := btn.ControlID()
	if before == after {
		t.Fatal("rename of ancestor did not change descendant ControlID")
	}
	if !strings.Contains(after, "Typeface") {
		t.Errorf("ControlID %q does not reflect rename", after)
	}
	// An ancestor with an automation id keeps identifiers stable across
	// renames: the primary id is the automation id, not the name.
	stable := btn.ControlID()
	tab.SetName("Start")
	if btn.ControlID() != stable {
		t.Error("rename of automation-id ancestor changed descendant ControlID")
	}
}

func TestAddChildReparents(t *testing.T) {
	root, tab, grp, btn := newTree()
	other := NewElement("", "Clipboard", GroupControl)
	tab.AddChild(other)
	other.AddChild(btn) // moves btn from grp to other
	if btn.Parent() != other {
		t.Fatal("AddChild did not reparent")
	}
	if grp.Find(func(e *Element) bool { return e == btn }) != nil {
		t.Fatal("btn still reachable under old parent")
	}
	if root.Count() != 4+1 {
		t.Errorf("Count = %d, want 5", root.Count())
	}
}

func TestOnScreenRespectsAncestors(t *testing.T) {
	_, tab, _, btn := newTree()
	if !btn.OnScreen() {
		t.Fatal("btn should start on screen")
	}
	tab.SetVisible(false)
	if btn.OnScreen() {
		t.Fatal("btn visible although ancestor hidden")
	}
}

func TestDeferVisibility(t *testing.T) {
	d := NewDesktop()
	root, _, _, btn := newTree()
	d.OpenWindow(root)
	btn.DeferVisibility(2)
	if contains(d.Snapshot(nil), btn) {
		t.Fatal("deferred element visible in snapshot 1")
	}
	if contains(d.Snapshot(nil), btn) {
		t.Fatal("deferred element visible in snapshot 2")
	}
	if !contains(d.Snapshot(nil), btn) {
		t.Fatal("deferred element still hidden in snapshot 3")
	}
}

func TestWalkPrune(t *testing.T) {
	root, tab, _, _ := newTree()
	var seen []string
	root.Walk(func(e *Element) bool {
		seen = append(seen, e.Name())
		return e != tab // prune below the tab
	})
	if len(seen) != 2 {
		t.Errorf("Walk visited %v, want [Word Home]", seen)
	}
}

func TestFindHelpers(t *testing.T) {
	root, _, _, btn := newTree()
	if root.FindByName("Bold") != btn {
		t.Error("FindByName failed")
	}
	if root.FindByAutomationID("btnBold") != btn {
		t.Error("FindByAutomationID failed")
	}
	btn.SetVisible(false)
	if root.FindByName("Bold") != nil {
		t.Error("FindByName returned off-screen element")
	}
}

func TestDepth(t *testing.T) {
	root, _, _, _ := newTree()
	if d := root.Depth(); d != 4 {
		t.Errorf("Depth = %d, want 4", d)
	}
}

func TestAncestorsOrder(t *testing.T) {
	root, tab, grp, btn := newTree()
	var anc []*Element
	for p := btn.Parent(); p != nil; p = p.Parent() {
		anc = append(anc, p)
	}
	if len(anc) != 3 || anc[0] != grp || anc[1] != tab || anc[2] != root {
		t.Errorf("parent chain wrong: %v", anc)
	}
	if !btn.IsDescendantOf(root) || root.IsDescendantOf(btn) {
		t.Error("IsDescendantOf wrong")
	}
}

func TestRectContainsProperty(t *testing.T) {
	f := func(x, y int8, w, h uint8) bool {
		r := Rect{int(x), int(y), int(w), int(h)}
		cx, cy := r.Center()
		if r.Empty() {
			return !r.Contains(cx, cy)
		}
		return r.Contains(cx, cy) &&
			!r.Contains(r.X-1, r.Y) && !r.Contains(r.X+r.W, r.Y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func contains(list []*Element, e *Element) bool {
	for _, x := range list {
		if x == e {
			return true
		}
	}
	return false
}

func TestPatternSlots(t *testing.T) {
	e := NewElement("x", "X", ButtonControl)
	if e.HasPattern(InvokePattern) || e.Pattern(InvokePattern) != nil || len(e.PatternIDs()) != 0 {
		t.Fatal("fresh element reports patterns")
	}
	e.SetPattern(ValuePattern, "first")
	e.SetPattern(InvokePattern, nil) // marker-only pattern
	e.SetPattern(ValuePattern, "second")
	if got := e.Pattern(ValuePattern); got != "second" {
		t.Errorf("re-set pattern = %v, want the replacement", got)
	}
	if !e.HasPattern(InvokePattern) || e.Pattern(InvokePattern) != nil {
		t.Error("nil provider should be supported and nil")
	}
	if e.HasPattern(TogglePattern) {
		t.Error("unset pattern reported")
	}
	ids := e.PatternIDs()
	if len(ids) != 2 || ids[0] != ValuePattern || ids[1] != InvokePattern {
		t.Errorf("PatternIDs = %v, want [Value Invoke]", ids)
	}
}

// TestElementSizeClass: every app build allocates thousands of Elements,
// so a field that pushes Element past the 208-byte allocation size class
// costs every build 16 more bytes per element.
func TestElementSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Element{}); n > 208 {
		t.Errorf("Element is %d bytes, want at most 208", n)
	}
}
