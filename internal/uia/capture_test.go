package uia

import (
	"slices"
	"testing"
)

// genFixture is a logged, recording window on a desktop: a toolbar with
// two buttons and a hidden menu holding one item, plus a detached element.
func genFixture() (d *Desktop, log *UndoLog, win, btn, menu, loose *Element) {
	d = NewDesktop()
	win = NewElement("win", "Main", WindowControl)
	bar := NewElement("bar", "Bar", ToolBarControl)
	btn = NewElement("btn", "Button", ButtonControl)
	btn.SetPattern(TogglePattern, NewToggle(nil))
	bar.AddChild(btn)
	bar.AddChild(NewElement("other", "Other", ButtonControl))
	menu = NewElement("menu", "Menu", MenuControl)
	menu.SetVisible(false)
	menu.AddChild(NewElement("item", "Item", MenuItemControl))
	win.AddChild(bar)
	win.AddChild(menu)
	loose = NewElement("loose", "Loose", ButtonControl)
	d.OpenWindow(win)
	log = NewUndoLog()
	log.Attach(win, loose)
	log.SetRecording(true)
	return d, log, win, btn, menu, loose
}

// capture takes a capture of d with prev as its previous one.
func capture(d *Desktop, prev *Capture) *Capture {
	c := new(Capture)
	d.Capture(c, prev, nil)
	return c
}

// walked reports whether c's one window was walked, that is, whether its
// observation is not the one prev holds.
func walked(c, prev *Capture) bool {
	return prev == nil || c.Windows[0] != prev.Window(c.Windows[0].Root)
}

// checkWalked requires c to list what a snapshot of d lists and its one
// window to have been walked (walked) or shared with prev.
func checkWalked(t *testing.T, what string, d *Desktop, c, prev *Capture, want bool) {
	t.Helper()
	if len(c.Windows) != 1 || walked(c, prev) != want {
		t.Errorf("%s: %d windows, want one window walked=%v", what, len(c.Windows), want)
	}
	// Snapshot counts deferrals down too, so compare on a desktop where
	// none is pending.
	snap := d.Snapshot(nil)
	var els []*Element
	var ids, snapIDs []string
	for _, o := range c.Windows {
		els = append(els, o.Els...)
		ids = append(ids, o.IDs...)
	}
	for _, e := range snap {
		snapIDs = append(snapIDs, e.ControlID())
	}
	if !slices.Equal(els, snap) || !slices.Equal(ids, snapIDs) {
		t.Errorf("%s: capture lists %v, a snapshot %v", what, ids, snapIDs)
	}
}

// TestStructuralGeneration: the mutations a capture can see give the
// window a new structural generation, whether or not the log records;
// every other mutation, a repeated value and a mutation outside the window
// keep it.
func TestStructuralGeneration(t *testing.T) {
	for _, m := range []struct {
		what       string
		structural bool
		do         func(win, btn, menu, loose *Element)
	}{
		{"SetName", true, func(_, btn, _, _ *Element) { btn.SetName("Renamed") }},
		{"SetVisible", true, func(_, _, menu, _ *Element) { menu.SetVisible(true) }},
		{"AddChild", true, func(win, _, _, _ *Element) { win.AddChild(NewElement("new", "New", ButtonControl)) }},
		{"AddChild of an attached element", true, func(_, btn, menu, _ *Element) { menu.AddChild(btn) }},
		{"RemoveChild", true, func(_, btn, _, _ *Element) { btn.Parent().RemoveChild(btn) }},
		{"DeferVisibility", true, func(_, btn, _, _ *Element) { btn.DeferVisibility(2) }},
		{"SetName to the same name", false, func(_, btn, _, _ *Element) { btn.SetName("Button") }},
		{"SetVisible to the same value", false, func(_, _, menu, _ *Element) { menu.SetVisible(false) }},
		{"SetRect", false, func(_, btn, _, _ *Element) { btn.SetRect(Rect{1, 2, 3, 4}) }},
		{"SetEnabled", false, func(_, btn, _, _ *Element) { btn.SetEnabled(false) }},
		{"SetDescription", false, func(_, btn, _, _ *Element) { btn.SetDescription("d") }},
		{"SetPattern", false, func(_, btn, _, _ *Element) { btn.SetPattern(InvokePattern, "x") }},
		{"a provider setter", false, func(_, btn, _, _ *Element) {
			_ = btn.Pattern(TogglePattern).(Toggler).SetToggleState(btn, ToggleOn)
		}},
		{"Store", false, func(_, btn, _, _ *Element) {
			x := 1
			Store(btn, &x, 2)
		}},
		{"a mutation of a detached element", false, func(_, _, _, loose *Element) { loose.SetName("Elsewhere") }},
	} {
		for _, recording := range []bool{true, false} {
			_, log, win, btn, menu, loose := genFixture()
			log.SetRecording(recording)
			before, _ := win.generation()
			m.do(win, btn, menu, loose)
			after, _ := win.generation()
			if changed := after != before; changed != m.structural {
				t.Errorf("%s (recording %v): generation changed %v, want %v", m.what, recording, changed, m.structural)
			}
		}
	}
}

// TestGenerationRewind: RewindTo restores the generation with the
// mutations it counts, so a capture after the rewind copies the window
// from the capture taken at the mark.
func TestGenerationRewind(t *testing.T) {
	d, log, win, btn, menu, _ := genFixture()
	c0 := capture(d, nil)
	checkWalked(t, "first capture", d, c0, nil, true)
	mark := log.Mark()
	g0, _ := win.generation()
	menu.SetVisible(true)
	btn.SetName("Renamed")
	win.AddChild(NewElement("new", "New", ButtonControl))
	checkWalked(t, "capture after the mutations", d, capture(d, c0), c0, true)
	log.RewindTo(mark)
	if g, _ := win.generation(); g != g0 {
		t.Fatalf("generation after RewindTo = %+v, want %+v", g, g0)
	}
	checkWalked(t, "capture after the rewind", d, capture(d, c0), c0, false)

	// The same mutations again give generations no earlier capture holds.
	menu.SetVisible(true)
	if g, _ := win.generation(); g == g0 {
		t.Fatal("a mutation after the rewind brought back the generation at the mark")
	}
}

// TestUnloggedGrowthNotMasked: elements added with recording off — a
// deferred list's build — between a capture and a rewind to its mark stay
// after the rewind, so the next capture walks the window and lists them,
// although the rewind put back the generation number of every logged
// mutation.
func TestUnloggedGrowthNotMasked(t *testing.T) {
	d, log, _, _, menu, _ := genFixture()
	list := NewElement("list", "List", ListControl)
	menu.Parent().AddChild(list)
	c0 := capture(d, nil)
	mark := log.Mark()
	menu.SetVisible(true) // logged: the click that opens the list
	log.SetRecording(false)
	list.AddChild(NewElement("built", "Built", ListItemControl))
	log.SetRecording(true)
	checkWalked(t, "capture after the build", d, capture(d, c0), c0, true)
	log.RewindTo(mark)
	c := capture(d, c0)
	checkWalked(t, "capture after the rewind", d, c, c0, true)
	if !slices.ContainsFunc(c.Windows[0].Els, func(e *Element) bool { return e.AutomationID() == "built" }) {
		t.Error("the built item is missing from the capture after the rewind")
	}
}

// TestDeferralWalkedAgain: a window whose walk counted a deferral down is
// walked by the next capture, until a walk finds none pending, even after
// a rewind to before that walk; a window no log tracks is walked every
// time.
func TestDeferralWalkedAgain(t *testing.T) {
	d, log, _, btn, _, _ := genFixture()
	btn.DeferVisibility(2)
	mark := log.Mark()
	c0 := capture(d, nil) // counts 2 → 1
	log.RewindTo(mark)    // back to 2, and to the generation c0 started from
	c := capture(d, c0)   // counts 2 → 1 again
	if len(c.Windows) != 1 || !walked(c, c0) || btn.deferVisible != 1 {
		t.Fatalf("capture after a rewind to before a countdown: walked %v, deferral %d, want walked and 1", walked(c, c0), btn.deferVisible)
	}
	c0 = c
	c1 := capture(d, c0) // counts 1 → 0
	if len(c1.Windows) != 1 || !walked(c1, c0) {
		t.Fatal("capture after a countdown shared the window's observation")
	}
	c2 := capture(d, c1) // walks: the last walk counted down
	if len(c2.Windows) != 1 || !walked(c2, c1) || !slices.Contains(c2.Windows[0].Els, btn) {
		t.Fatalf("capture after the deferral ran out: walked %v, button listed %v", walked(c2, c1), slices.Contains(c2.Windows[0].Els, btn))
	}
	checkWalked(t, "capture after a walk with no countdown", d, capture(d, c2), c2, false)

	plain := NewDesktop()
	w := NewElement("w", "W", WindowControl)
	w.AddChild(NewElement("a", "A", ButtonControl))
	plain.OpenWindow(w)
	p0 := capture(plain, nil)
	checkWalked(t, "untracked window", plain, capture(plain, p0), p0, true)
}
