package uia

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestWindowStack(t *testing.T) {
	d := NewDesktop()
	w1 := NewElement("w1", "Main", WindowControl)
	w2 := NewElement("w2", "Dialog", WindowControl)
	d.OpenWindow(w1)
	d.OpenWindow(w2)
	if d.TopWindow() != w2 {
		t.Fatal("TopWindow should be the dialog")
	}
	d.CloseWindow(w2)
	if d.TopWindow() != w1 {
		t.Fatal("TopWindow should fall back to main")
	}
	if d.IsOpen(w2) {
		t.Error("closed window still reported open")
	}
}

func TestTopWindowSkipsInvisible(t *testing.T) {
	d := NewDesktop()
	w1 := NewElement("w1", "Main", WindowControl)
	w2 := NewElement("w2", "Hidden", WindowControl)
	d.OpenWindow(w1)
	d.OpenWindow(w2)
	w2.SetVisible(false)
	if d.TopWindow() != w1 {
		t.Fatal("TopWindow should skip invisible windows")
	}
}

func TestClickDispatch(t *testing.T) {
	d := NewDesktop()
	w := NewElement("w", "Main", WindowControl)
	d.OpenWindow(w)

	btn := NewElement("b", "Bold", ButtonControl)
	w.AddChild(btn)
	tg := NewToggle(nil)
	btn.SetPattern(TogglePattern, tg)
	clicked := 0
	btn.OnClick(func(*Element) { clicked++ })

	if err := d.Click(btn); err != nil {
		t.Fatal(err)
	}
	if tg.State != ToggleOn || clicked != 1 {
		t.Fatalf("toggle=%v clicks=%d", tg.State, clicked)
	}
	if err := d.Click(btn); err != nil {
		t.Fatal(err)
	}
	if tg.State != ToggleOff {
		t.Fatal("second click should toggle off")
	}

	btn.SetEnabled(false)
	if err := d.Click(btn); !errors.Is(err, ErrDisabled) {
		t.Fatalf("click on disabled: %v", err)
	}
	btn.SetEnabled(true)
	btn.SetVisible(false)
	if err := d.Click(btn); !errors.Is(err, ErrNotOnScreen) {
		t.Fatalf("click on hidden: %v", err)
	}
}

func TestClickFocusesEdit(t *testing.T) {
	d := NewDesktop()
	w := NewElement("w", "Main", WindowControl)
	d.OpenWindow(w)
	ed := NewElement("e", "Search", EditControl)
	ed.SetPattern(ValuePattern, NewValue("", nil))
	w.AddChild(ed)
	if err := d.Click(ed); err != nil {
		t.Fatal(err)
	}
	if d.Focus() != ed {
		t.Fatal("click on edit should focus it")
	}
	if err := d.TypeText("hello"); err != nil {
		t.Fatal(err)
	}
	v := ed.Pattern(ValuePattern).(Valuer)
	if got := v.Value(ed); got != "hello" {
		t.Errorf("typed value = %q", got)
	}
}

func TestTypeTextErrors(t *testing.T) {
	d := NewDesktop()
	if err := d.TypeText("x"); !errors.Is(err, ErrNoFocus) {
		t.Fatalf("want ErrNoFocus, got %v", err)
	}
	ro := NewElement("ro", "Status", EditControl)
	ro.SetPattern(ValuePattern, &SimpleValue{Val: "v", ReadOnly: true})
	d.SetFocus(ro)
	if err := d.TypeText("x"); err == nil {
		t.Fatal("typing into read-only value should fail")
	}
}

func TestPressKey(t *testing.T) {
	d := NewDesktop()
	fired := ""
	d.RegisterKey("Ctrl+S", func(*Desktop) error { fired = "save"; return nil })
	if err := d.PressKey("ctrl + s"); err != nil {
		t.Fatal(err)
	}
	if fired != "save" {
		t.Fatal("handler did not run")
	}
	if err := d.PressKey("F42"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("want ErrUnknownKey, got %v", err)
	}
}

func TestHitTestPicksDeepestInteractive(t *testing.T) {
	d := NewDesktop()
	w := NewElement("w", "Main", WindowControl)
	w.SetRect(Rect{0, 0, 100, 100})
	pane := NewElement("p", "Body", PaneControl)
	pane.SetRect(Rect{0, 0, 100, 100})
	btn := NewElement("b", "OK", ButtonControl)
	btn.SetRect(Rect{10, 10, 20, 10})
	w.AddChild(pane)
	pane.AddChild(btn)
	d.OpenWindow(w)

	if got := d.HitTest(15, 15); got != btn {
		t.Fatalf("HitTest = %v, want OK button", got)
	}
	if got := d.HitTest(90, 90); got != pane {
		t.Fatalf("HitTest = %v, want body pane", got)
	}
	if got := d.HitTest(500, 500); got != nil {
		t.Fatalf("HitTest outside = %v, want nil", got)
	}
}

// TestHitTestHonoursZOrder: a hit in a later (higher) window wins over a
// deeper one in a window below it; where the higher window has no hit, the
// lower one's still counts.
func TestHitTestHonoursZOrder(t *testing.T) {
	d := NewDesktop()
	main := NewElement("w", "Main", WindowControl)
	main.SetRect(Rect{0, 0, 100, 100})
	deep := main
	for _, id := range []string{"p1", "p2", "p3"} {
		c := NewElement(id, id, PaneControl)
		c.SetRect(Rect{0, 0, 100, 100})
		deep.AddChild(c)
		deep = c
	}
	under := NewElement("combo", "Font", ComboBoxControl)
	under.SetRect(Rect{40, 40, 20, 20})
	deep.AddChild(under)
	dlg := NewElement("dlg", "Dialog", WindowControl)
	dlg.SetRect(Rect{30, 30, 40, 40})
	ok := NewElement("ok", "OK", ButtonControl)
	ok.SetRect(Rect{45, 45, 10, 10})
	dlg.AddChild(ok)
	d.OpenWindow(main)
	d.OpenWindow(dlg)

	if got := d.HitTest(50, 50); got != ok {
		t.Errorf("HitTest under the dialog's button = %v, want the button", got)
	}
	if got := d.HitTest(35, 35); got != dlg {
		t.Errorf("HitTest on the dialog's bare surface = %v, want the dialog", got)
	}
	if got := d.HitTest(10, 10); got != deep {
		t.Errorf("HitTest beside the dialog = %v, want the main window's deepest pane", got)
	}
}

func TestDragMovesScrollbar(t *testing.T) {
	d := NewDesktop()
	w := NewElement("w", "Main", WindowControl)
	w.SetRect(Rect{0, 0, 200, 200})
	sb := NewElement("vsb", "Vertical Scroll Bar", ScrollBarControl)
	sb.SetRect(Rect{190, 0, 10, 200})
	sc := NewVScroll(nil)
	sc.V = 0
	sb.SetPattern(ScrollPattern, sc)
	w.AddChild(sb)
	d.OpenWindow(w)

	if err := d.Drag(195, 10, 195, 110); err != nil {
		t.Fatal(err)
	}
	_, v := sc.ScrollPercent(sb)
	if v < 45 || v > 55 {
		t.Errorf("drag of half the bar moved to %v%%, want ~50%%", v)
	}
	// Dragging past the end clamps.
	if err := d.Drag(195, 10, 195, 10000); err != nil {
		t.Fatal(err)
	}
	_, v = sc.ScrollPercent(sb)
	if v != 100 {
		t.Errorf("clamp failed: %v", v)
	}
}

func TestClockAdvances(t *testing.T) {
	d := NewDesktop()
	w := NewElement("w", "Main", WindowControl)
	d.OpenWindow(w)
	before := d.Clock().Now()
	d.Snapshot(nil)
	if d.Clock().Now() != before+CostSnapshot {
		t.Error("snapshot did not advance clock")
	}
	d.Clock().Advance(-time.Hour)
	if d.Clock().Now() < 0 {
		t.Error("negative advance should be ignored")
	}
}

func TestSnapshotOrderAndVisibility(t *testing.T) {
	d := NewDesktop()
	w := NewElement("w", "Main", WindowControl)
	a := NewElement("a", "A", ButtonControl)
	b := NewElement("b", "B", ButtonControl)
	hidden := NewElement("h", "H", ButtonControl)
	hidden.SetVisible(false)
	under := NewElement("u", "Under", ButtonControl)
	hidden.AddChild(under)
	w.AddChild(a)
	w.AddChild(b)
	w.AddChild(hidden)
	d.OpenWindow(w)

	snap := d.Snapshot(nil)
	if len(snap) != 3 { // w, a, b
		t.Fatalf("snapshot = %d elements, want 3", len(snap))
	}
	if snap[0] != w || snap[1] != a || snap[2] != b {
		t.Error("snapshot not in document order")
	}
}

// TestSnapshotReusesBuffer: a snapshot into a previous result's storage
// yields the same elements as a fresh one, without reallocating, and still
// counts as a full observation (clock, count).
func TestSnapshotReusesBuffer(t *testing.T) {
	d := NewDesktop()
	w := NewElement("w", "Main", WindowControl)
	for _, id := range []string{"a", "b", "c"} {
		w.AddChild(NewElement(id, id, ButtonControl))
	}
	d.OpenWindow(w)
	fresh := d.Snapshot(nil)
	buf := make([]*Element, 1, 8)
	reused := d.Snapshot(buf)
	if len(reused) != len(fresh) || &reused[0] != &buf[0] {
		t.Fatalf("reused snapshot: %d elements, shares storage %v", len(reused), &reused[0] == &buf[0])
	}
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("element %d differs", i)
		}
	}
	if d.SnapshotCount() != 2 || d.Clock().Now() != 2*CostSnapshot {
		t.Errorf("count %d, clock %v after two snapshots", d.SnapshotCount(), d.Clock().Now())
	}
}

func TestClampPercentProperty(t *testing.T) {
	f := func(p float64) bool {
		c := clampPercent(p)
		return c >= 0 && c <= 100 && (p < 0 || p > 100 || c == p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeKey(t *testing.T) {
	cases := map[string]string{
		"ctrl+s": "CTRL+S", "Ctrl + S": "CTRL+S", "ENTER": "ENTER", "esc": "ESC",
	}
	for in, want := range cases {
		if got := normalizeKey(in); got != want {
			t.Errorf("normalizeKey(%q) = %q, want %q", in, got, want)
		}
	}
}
