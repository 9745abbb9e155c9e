package uia

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// dumpState renders every element under the roots with each property a
// mutator can change, and the state of every provider attached to it.
func dumpState(roots ...*Element) string {
	var b strings.Builder
	for _, r := range roots {
		r.Walk(func(e *Element) bool {
			fmt.Fprintf(&b, "%s %q %q en=%v vis=%v def=%d %v kids=%d parent=%p",
				e.ControlID(), e.Name(), e.Description(), e.Enabled(), e.Visible(),
				e.deferVisible, e.Rect(), len(e.Children()), e.Parent())
			for _, p := range e.patterns {
				fmt.Fprintf(&b, " %s:%p", p.id, p.provider)
				switch v := p.provider.(type) {
				case *SimpleToggle:
					fmt.Fprintf(&b, "=%v", v.State)
				case *SimpleValue:
					fmt.Fprintf(&b, "=%q", v.Val)
				case *SimpleScroll:
					fmt.Fprintf(&b, "=%g/%g", v.H, v.V)
				case *SimpleText:
					fmt.Fprintf(&b, "=%d-%d", v.selStart, v.selEnd)
				case *SimpleRange:
					fmt.Fprintf(&b, "=%g", v.Val)
				case *SimpleExpand:
					fmt.Fprintf(&b, "=%v", v.state)
				case SelectionItem:
					fmt.Fprintf(&b, "=%v", v.IsSelected(e))
				}
			}
			b.WriteByte('\n')
			return true
		})
	}
	return b.String()
}

// undoFixture is a window holding one control of each provider kind, a
// second window, and a detached element.
func undoFixture() (win, other, loose *Element, all []*Element) {
	win = NewElement("win", "Main", WindowControl)
	other = NewElement("dlg", "Dialog", WindowControl)
	loose = NewElement("loose", "Loose", ButtonControl)
	sel := NewSelectionList(true, nil)
	list := NewElement("lst", "List", ListControl)
	list.SetPattern(SelectionPattern, sel)
	win.AddChild(list)
	for i := 0; i < 3; i++ {
		it := NewElement(fmt.Sprintf("it%d", i), fmt.Sprintf("Item %d", i), ListItemControl)
		it.SetPattern(SelectionItemPattern, sel.Item())
		list.AddChild(it)
	}
	pane := NewElement("pane", "Pane", PaneControl)
	win.AddChild(pane)
	tg := NewElement("tg", "Toggle", CheckBoxControl)
	tg.SetPattern(TogglePattern, NewToggle(nil))
	ed := NewElement("ed", "Edit", EditControl)
	ed.SetPattern(ValuePattern, NewValue("x", nil))
	sb := NewElement("sb", "Scroll", ScrollBarControl)
	sb.SetPattern(ScrollPattern, NewVScroll(nil))
	doc := NewElement("doc", "Doc", DocumentControl)
	doc.SetPattern(TextPattern, NewText("a\n\nb\n\nc"))
	sp := NewElement("sp", "Spin", SpinnerControl)
	sp.SetPattern(RangeValuePattern, &SimpleRange{Min: 0, Max: 10, Val: 3})
	drop := NewElement("drop", "Drop", PaneControl)
	cb := NewElement("cb", "Combo", ComboBoxControl)
	cb.SetPattern(ExpandCollapsePattern, NewExpand(drop))
	for _, e := range []*Element{tg, ed, sb, doc, sp, cb, drop} {
		pane.AddChild(e)
	}
	other.AddChild(NewElement("ok", "OK", ButtonControl))
	win.Walk(func(e *Element) bool { all = append(all, e); return true })
	other.Walk(func(e *Element) bool { all = append(all, e); return true })
	return win, other, loose, append(all, loose)
}

// mutate applies one random mutation through the public seams.
func mutate(rng *rand.Rand, all []*Element, d *Desktop) {
	e := all[rng.Intn(len(all))]
	switch rng.Intn(12) {
	case 0:
		e.SetName(fmt.Sprintf("n%d", rng.Intn(5)))
	case 1:
		e.SetDescription(fmt.Sprintf("d%d", rng.Intn(5)))
	case 2:
		e.SetEnabled(rng.Intn(2) == 0)
	case 3:
		e.SetVisible(rng.Intn(2) == 0)
	case 4:
		e.SetRect(Rect{rng.Intn(9), rng.Intn(9), 1 + rng.Intn(9), 1 + rng.Intn(9)})
	case 5:
		// Re-parent: e moves under another element outside its subtree.
		p := all[rng.Intn(len(all))]
		if !p.IsDescendantOf(e) {
			p.AddChild(e)
		}
	case 6:
		if p := e.Parent(); p != nil {
			p.RemoveChild(e)
		}
	case 7:
		e.DeferVisibility(rng.Intn(3))
		d.Snapshot(nil) // counts deferrals down
	case 8:
		e.SetPattern(PatternID(rng.Intn(3)), fmt.Sprint(rng.Intn(3)))
	case 9:
		e.AddChild(NewElement(fmt.Sprintf("new%d", rng.Intn(9)), "New", ButtonControl))
	case 10, 11:
		for _, p := range e.patterns {
			switch v := p.provider.(type) {
			case Toggler:
				_ = v.SetToggleState(e, ToggleState(rng.Intn(2)))
			case Valuer:
				_ = v.SetValue(e, fmt.Sprint(rng.Intn(5)))
			case Scroller:
				_ = v.ScrollStep(e, 0, float64(rng.Intn(40)-20))
			case Texter:
				_ = v.SelectParagraphs(e, 1, 1+rng.Intn(3))
			case RangeValuer:
				_ = v.SetRangeValue(e, float64(rng.Intn(11)))
			case ExpandCollapser:
				if rng.Intn(2) == 0 {
					_ = v.Expand(e)
				} else {
					_ = v.Collapse(e)
				}
			case SelectionItem:
				switch rng.Intn(3) {
				case 0:
					_ = v.Select(e)
				case 1:
					_ = v.AddToSelection(e)
				default:
					_ = v.RemoveFromSelection(e)
				}
			}
		}
	}
}

// TestUndoLogRewind: every mutator and provider setter logs the old value
// while recording, and Rewind restores the whole state — structure, ids,
// properties, deferrals, patterns and provider state — over seeded random
// histories. Elements added under logged ones join the log, whether or
// not it is recording, and subtrees re-parented from a detached element
// join it with all their descendants.
func TestUndoLogRewind(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		win, other, loose, all := undoFixture()
		d := NewDesktop()
		d.OpenWindow(win)
		d.OpenWindow(other)
		log := NewUndoLog()
		// loose too: a mutation can move a logged window under it.
		log.Attach(win, other, loose)
		// A first, unrecorded history: the state to return to need not be
		// the built one.
		for i := 0; i < 20; i++ {
			mutate(rng, all, d)
		}
		// Elements created above joined the log when they were added.
		before := dumpState(win, other)
		log.SetRecording(true)
		for i := 0; i < 1+rng.Intn(40); i++ {
			mutate(rng, all, d)
		}
		log.Rewind()
		if after := dumpState(win, other); after != before {
			t.Fatalf("seed %d: rewind left\n%s\nwant\n%s", seed, after, before)
		}
		if log.SetRecording(false) {
			t.Fatalf("seed %d: still recording after Rewind", seed)
		}
	}
}

// TestUndoLogRewindTo: marks nest. Rewinding to a mark restores the state
// when it was taken, keeps recording, and leaves earlier marks valid, so
// the state can be rewound again to an earlier one, over seeded random
// histories.
func TestUndoLogRewindTo(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		win, other, loose, all := undoFixture()
		d := NewDesktop()
		d.OpenWindow(win)
		d.OpenWindow(other)
		log := NewUndoLog()
		log.Attach(win, other, loose)
		log.SetRecording(true)
		var marks []int
		var states []string
		for depth := 0; depth < 4; depth++ {
			for i := 0; i < rng.Intn(10); i++ {
				mutate(rng, all, d)
			}
			marks = append(marks, log.Mark())
			states = append(states, dumpState(win, other))
		}
		for i := len(marks) - 1; i >= 0; i -= 1 + rng.Intn(2) {
			for j := 0; j < 1+rng.Intn(10); j++ {
				mutate(rng, all, d)
			}
			log.RewindTo(marks[i])
			if got := dumpState(win, other); got != states[i] {
				t.Fatalf("seed %d: rewind to mark %d left\n%s\nwant\n%s", seed, i, got, states[i])
			}
			if !log.SetRecording(true) {
				t.Fatalf("seed %d: RewindTo stopped recording", seed)
			}
		}
	}
}

// TestUndoLogOffByDefault: elements without a log, and a log that is not
// recording, record nothing.
func TestUndoLogOffByDefault(t *testing.T) {
	win, other, _, all := undoFixture()
	log := NewUndoLog()
	log.Attach(other)
	rng := rand.New(rand.NewSource(1))
	d := NewDesktop()
	d.OpenWindow(win)
	for i := 0; i < 50; i++ {
		mutate(rng, all, d)
	}
	if len(log.entries) != 0 {
		t.Fatalf("a log that never recorded holds %d entries", len(log.entries))
	}
}

// TestDeskStateRestore: RestoreState puts back the clock, snapshot count,
// focus and window stack SaveState captured.
func TestDeskStateRestore(t *testing.T) {
	d := NewDesktop()
	w := NewElement("w", "W", WindowControl)
	ed := NewElement("ed", "Edit", EditControl)
	w.AddChild(ed)
	d.OpenWindow(w)
	var s DeskState
	d.SaveState(&s)
	d.Snapshot(nil)
	d.OpenWindow(NewElement("p", "P", PaneControl))
	d.SetFocus(ed)
	d.Clock().Advance(CostClick)
	d.RestoreState(s)
	if d.Clock().Now() != 0 || d.SnapshotCount() != 0 || d.Focus() != nil || len(d.Windows()) != 1 || d.Windows()[0] != w {
		t.Fatalf("restored desktop: clock %v, %d snapshots, focus %v, windows %v",
			d.Clock().Now(), d.SnapshotCount(), d.Focus(), d.Windows())
	}
}
