package ung

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/appkit"
	"repro/internal/office/word"
)

// TestExpandIndexReuse checks that whether an expansion starts from a
// checkpoint the cursor already holds, with its capture and id index, or
// replays and captures afresh never shows in a result.
func TestExpandIndexReuse(t *testing.T) {
	t.Run("sequence", testExpandIndexSequence)
	t.Run("rename", testExpandIndexRename)
}

// testExpandIndexSequence expands a sequence of frames through one cursor —
// sibling frames sharing a click path, depth-0 frames, a frame in another
// context, a depth-2 frame, then a sibling again — and checks every
// expansion against the same frame expanded by a fresh cursor on a fresh
// instance.
func testExpandIndexSequence(t *testing.T) {
	wordApp, depth2 := wordDepth2Frame(t)
	newWord := func() *appkit.App { return word.New().App }

	type step struct {
		what string
		ctx  string
		f    Frame
	}
	// Text Outline's reveals are siblings: the ripper explores each of them
	// from the checkpoint after Text Effects → Text Outline.
	outline := Frame{ID: depth2.Path[1], Path: depth2.Path[:1]}
	steps := []step{{"Text Outline", "", outline}}
	var siblings []step
	for _, r := range NewCursor(newWord()).Expand("", outline).Reveals {
		if clickable(r.Type) && len(siblings) < 4 {
			siblings = append(siblings, step{"sibling " + r.ID, "", Frame{ID: r.ID, Path: depth2.Path}})
		}
	}
	if len(siblings) < 2 {
		t.Fatalf("Text Outline reveals %d clickable controls, want ≥ 2", len(siblings))
	}
	textEffects := Frame{ID: depth2.Path[0]}
	steps = append(steps, siblings...)
	steps = append(steps,
		step{"depth-0 Text Effects", "", textEffects},
		step{"depth-0 Text Effects again", "", textEffects},
		step{"Text Effects in " + word.ContextImageSelected, word.ContextImageSelected, textEffects},
		step{"depth-2 frame", "", depth2},
	)
	steps = append(steps, siblings[0])

	cur := NewCursor(wordApp)
	fromCheckpoint, revealing := 0, 0
	for _, c := range steps {
		// The frame starts from a checkpoint the cursor holds when its
		// whole path is a prefix of the cursor's, in the same context.
		if cur.entered && c.ctx == cur.ctx && len(c.f.Path) <= len(cur.path) &&
			slices.Equal(cur.path[:len(c.f.Path)], c.f.Path) {
			fromCheckpoint++
		}
		got := cur.Expand(c.ctx, c.f)
		want := NewCursor(newWord()).Expand(c.ctx, c.f)
		if len(got.Reveals) > 0 {
			revealing++
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: expansion through a long-lived cursor differs from a fresh one:\n%+v\nvs\n%+v", c.what, got, want)
		}
		if len(cur.added) != 0 || len(cur.fresh) != 0 {
			t.Errorf("%s: cursor keeps per-expansion state after the expansion", c.what)
		}
	}
	t.Logf("%d of %d expansions started from a held checkpoint, %d revealed controls", fromCheckpoint, len(steps), revealing)
	if fromCheckpoint == 0 || fromCheckpoint == len(steps) {
		t.Errorf("%d of %d expansions started from a held checkpoint; want some that do and some that replay", fromCheckpoint, len(steps))
	}
	if revealing < len(steps)/2 {
		t.Errorf("only %d of %d expansions revealed controls", revealing, len(steps))
	}
}

// renameDemo builds an application whose Rename button renames the
// control beside it, Beta, to Beth.
func renameDemo() *appkit.App {
	a := appkit.New("Demo")
	g := a.Tab("tabHome", "Home").Group("grpRename", "Rename")
	beta := g.Button("", "Beta", nil)
	g.Button("btnRename", "Rename", func(*appkit.App) { beta.SetName("Beth") })
	return a
}

// testExpandIndexRename covers a click that renames a control of the
// checkpoint's capture without changing its length: the renamed control
// counts as revealed, and the rewind to the checkpoint restores the name
// its cached id was indexed under.
func testExpandIndexRename(t *testing.T) {
	build := renameDemo
	probe := build()
	rename, beta := onScreen(probe, "btnRename").ControlID(), ""
	for _, e := range probe.Desk.Snapshot(nil) {
		if e.Name() == "Beta" {
			beta = e.ControlID()
		}
	}
	if beta == "" {
		t.Fatal("Beta not on screen")
	}

	cur := NewCursor(build())
	got := cur.Expand("", Frame{ID: rename})
	if got.Outcome != ExpandOK || len(got.Reveals) != 1 || got.Reveals[0].Name != "Beth" || got.Reveals[0].ID == beta {
		t.Fatalf("Rename reveals %+v, want the renamed control under a new id", got.Reveals)
	}
	// The sibling frame looks Beta up by its old id in checkpoint 0.
	for _, f := range []Frame{{ID: beta}, {ID: rename}} {
		got := cur.Expand("", f)
		if want := NewCursor(build()).Expand("", f); !reflect.DeepEqual(got, want) {
			t.Errorf("frame %q after the rename: %+v, want %+v", f.ID, got, want)
		}
		if got.Outcome != ExpandOK {
			t.Errorf("frame %q after the rename: outcome %v, want OK", f.ID, got.Outcome)
		}
	}
}
