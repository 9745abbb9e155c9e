package ung

import (
	"reflect"
	"testing"

	"repro/internal/appkit"
	"repro/internal/office/excel"
	"repro/internal/office/word"
	"repro/internal/uia"
)

// TestExpandIndexReuse checks that whether an expansion reuses the
// scratch's id index or rebuilds it never shows in a result.
func TestExpandIndexReuse(t *testing.T) {
	t.Run("sequence", testExpandIndexSequence)
	t.Run("rename", testExpandIndexRename)
}

// testExpandIndexSequence expands a sequence of frames on one scratch —
// sibling frames sharing a click path, depth-0 frames, a frame in another
// context, frames of another application, then the first application
// again — and checks every expansion against the same frame expanded on a
// fresh instance with a cold scratch.
func testExpandIndexSequence(t *testing.T) {
	wordApp, depth2 := wordDepth2Frame(t)
	excelApp := excel.New().App
	newWord := func() *appkit.App { return word.New().App }
	newExcel := func() *appkit.App { return excel.New().App }

	type step struct {
		what  string
		app   *appkit.App
		build func() *appkit.App
		ctx   string
		f     Frame
	}
	// Text Outline's reveals are siblings: the ripper explores each of them
	// by replaying the click path Text Effects → Text Outline.
	outline := Frame{ID: depth2.Path[1], Path: depth2.Path[:1]}
	steps := []step{{"Text Outline", wordApp, newWord, "", outline}}
	var siblings []Frame
	for _, r := range ExpandFrame(newWord(), "", outline).Reveals {
		if clickable(r.Type) && len(siblings) < 4 {
			siblings = append(siblings, Frame{ID: r.ID, Path: depth2.Path})
		}
	}
	if len(siblings) < 2 {
		t.Fatalf("Text Outline reveals %d clickable controls, want ≥ 2", len(siblings))
	}
	for _, f := range siblings {
		steps = append(steps, step{"sibling " + f.ID, wordApp, newWord, "", f})
	}
	textEffects := Frame{ID: depth2.Path[0]}
	steps = append(steps,
		step{"depth-0 Text Effects", wordApp, newWord, "", textEffects},
		step{"depth-0 Text Effects again", wordApp, newWord, "", textEffects},
		step{"Text Effects in " + word.ContextImageSelected, wordApp, newWord, word.ContextImageSelected, textEffects},
		step{"depth-2 frame", wordApp, newWord, "", depth2},
	)
	for _, autoID := range []string{"btnSortFilter", "btnCondFormatting"} {
		el := onScreen(excelApp, autoID)
		if el == nil {
			t.Fatalf("Excel %s not on screen", autoID)
		}
		steps = append(steps, step{"Excel " + autoID, excelApp, newExcel, "", Frame{ID: el.ControlID()}})
	}
	steps = append(steps, step{"Word after Excel", wordApp, newWord, "", depth2})

	s := newExpandScratch()
	reused, revealing := 0, 0
	for _, c := range steps {
		var indexed *string // the id list's storage, which a rebuild swaps out
		if len(s.ids) > 0 {
			indexed = &s.ids[0]
		}
		got := s.expandFrame(c.app, c.ctx, c.f)
		want := newExpandScratch().expandFrame(c.build(), c.ctx, c.f)
		if len(got.Reveals) > 0 {
			revealing++
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: expansion on a shared scratch differs from a cold one:\n%+v\nvs\n%+v", c.what, got, want)
		}
		if len(s.added) != 0 || len(s.fresh) != 0 || len(s.snap) != 0 {
			t.Errorf("%s: scratch keeps per-expansion state after the expansion", c.what)
		}
		checkIndex(t, c.what, s)
		if indexed != nil && len(s.ids) > 0 && &s.ids[0] == indexed {
			reused++
		}
	}
	t.Logf("%d of %d expansions reused the id index, %d revealed controls", reused, len(steps), revealing)
	if reused == 0 || reused == len(steps) {
		t.Errorf("%d of %d expansions reused the id index; want some reuses and some rebuilds", reused, len(steps))
	}
	if revealing < len(steps)/2 {
		t.Errorf("only %d of %d expansions revealed controls", revealing, len(steps))
	}
}

// testExpandIndexRename covers an id list that keeps its length while one id
// changes, as when a control is renamed: the index must be rebuilt.
func testExpandIndexRename(t *testing.T) {
	win := uia.NewElement("win", "Window", uia.WindowControl)
	a := uia.NewElement("", "Alpha", uia.ButtonControl)
	b := uia.NewElement("", "Beta", uia.ButtonControl)
	win.AddChild(a)
	win.AddChild(b)

	s := newExpandScratch()
	s.snap = []*uia.Element{win, a, b}
	s.index()
	checkIndex(t, "before rename", s)
	old := b.ControlID()

	b.SetName("Beth") // same length, so the id list keeps its length too
	if b.ControlID() == old || len(b.ControlID()) != len(old) {
		t.Fatalf("rename gave id %q from %q, want a different id of the same length", b.ControlID(), old)
	}
	s.index()
	checkIndex(t, "after rename", s)
	if _, stale := s.seen[old]; stale {
		t.Errorf("index still holds the old id %q after the rename", old)
	}
	if _, ok := s.seen[b.ControlID()]; !ok {
		t.Errorf("index lacks the new id %q after the rename", b.ControlID())
	}
}

// checkIndex asserts that the scratch's id set is exactly the set of its id
// list: the invariant that makes reusing the index history-free.
func checkIndex(t *testing.T, what string, s *expandScratch) {
	t.Helper()
	want := make(map[string]struct{}, len(s.ids))
	for _, id := range s.ids {
		want[id] = struct{}{}
	}
	if !reflect.DeepEqual(s.seen, want) {
		t.Errorf("%s: id set (%d ids) is not the set of the id list (%d ids)", what, len(s.seen), len(want))
	}
}
