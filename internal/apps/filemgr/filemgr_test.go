package filemgr

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/appkit"
	"repro/internal/core"
	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/modelstore"
	"repro/internal/uia"
	"repro/internal/ung"
)

func factory() *appkit.App { return New().App }

func (f *App) mustClick(t *testing.T, el *uia.Element) {
	t.Helper()
	if el == nil {
		t.Fatal("nil element")
	}
	if err := f.Desk.Click(el); err != nil {
		t.Fatal(err)
	}
}

func TestFolderSwitchAndViewport(t *testing.T) {
	f := New()
	if f.Current != "Documents" {
		t.Fatalf("current = %q", f.Current)
	}
	notes := f.FS.File("Documents", "notes.txt")
	if notes == nil || !f.items[notes].OnScreen() {
		t.Fatal("documents rows not visible")
	}
	f.SetFolder("Projects")
	if f.items[notes].OnScreen() {
		t.Fatal("documents row still visible after folder switch")
	}
	alpha := f.FS.File("Projects", "proj_alpha.go")
	last := f.FS.File("Projects", "todo_projects.txt")
	if !f.items[alpha].OnScreen() {
		t.Fatal("first projects row not visible")
	}
	if f.items[last].OnScreen() {
		t.Fatal("row beyond the viewport visible without scrolling")
	}
	f.ScrollTo(100)
	if f.ViewTop() == 0 || !f.items[last].OnScreen() {
		t.Fatalf("scroll did not reveal the tail (top=%d)", f.ViewTop())
	}
}

func TestHiddenFilter(t *testing.T) {
	f := New()
	hidden := f.FS.File("Documents", ".drafts.tmp")
	if f.items[hidden].OnScreen() {
		t.Fatal("hidden file visible by default")
	}
	f.ActivateTabByName("View")
	f.mustClick(t, f.Win.FindByAutomationID("chkHiddenF"))
	if !f.ShowHidden || !f.items[hidden].OnScreen() {
		t.Fatal("hidden items checkbox did not reveal dotfiles")
	}
}

func TestSelectionCutPasteMovesFiles(t *testing.T) {
	f := New()
	f.SetFolder("Pictures")
	p2 := f.FS.File("Pictures", "photo2.jpg")
	p4 := f.FS.File("Pictures", "photo4.jpg")
	si2 := f.items[p2].Pattern(uia.SelectionItemPattern).(uia.SelectionItem)
	si4 := f.items[p4].Pattern(uia.SelectionItemPattern).(uia.SelectionItem)
	if err := si2.Select(f.items[p2]); err != nil {
		t.Fatal(err)
	}
	if err := si4.AddToSelection(f.items[p4]); err != nil {
		t.Fatal(err)
	}
	if len(f.Selected()) != 2 {
		t.Fatalf("selected %d files", len(f.Selected()))
	}
	f.mustClick(t, f.Win.FindByAutomationID("btnCutF"))
	f.SetFolder("Downloads")
	f.mustClick(t, f.Win.FindByAutomationID("btnPasteF"))
	if f.FS.Has("Pictures", "photo2.jpg") || f.FS.Has("Pictures", "photo4.jpg") {
		t.Fatal("cut files still in the source folder")
	}
	if !f.FS.Has("Downloads", "photo2.jpg") || !f.FS.Has("Downloads", "photo4.jpg") {
		t.Fatal("cut files not in the destination folder")
	}
	if !f.items[f.FS.File("Downloads", "photo2.jpg")].OnScreen() {
		t.Fatal("moved file has no visible row")
	}
}

// TestDeleteViaContextMenuAndRewindRestore: a delete through a file's
// context menu trashes the file the menu is bound to, and rewinding the
// instance's undo log restores it with its row on screen, as a rip cursor
// or a pooled session rewinds.
func TestDeleteViaContextMenuAndRewindRestore(t *testing.T) {
	f := New()
	log := uia.NewUndoLog()
	log.Attach(f.Win)
	log.Attach(f.AllPopupWindows()...)
	log.SetRecording(true)
	old := f.FS.File("Documents", "old_notes.txt")
	row := f.rows[old]
	var opts *uia.Element
	for _, c := range row.Children() {
		if c.Type() == uia.SplitButtonControl {
			opts = c
		}
	}
	f.mustClick(t, opts) // opens the context menu bound to the file
	var del *uia.Element
	for _, w := range f.AllPopupWindows() {
		if el := w.FindByAutomationID("ctxDelete"); el != nil {
			del = el
		}
	}
	f.mustClick(t, del)
	var ok *uia.Element
	for _, w := range f.AllPopupWindows() {
		if el := w.FindByAutomationID("dlgDeleteFOK"); el != nil {
			ok = el
		}
	}
	f.mustClick(t, ok)
	if f.FS.Has("Documents", "old_notes.txt") || !f.FS.Trashed("old_notes.txt") {
		t.Fatal("context-menu delete did not trash the bound file")
	}
	if f.items[old].OnScreen() {
		t.Fatal("deleted row still visible")
	}
	log.Rewind()
	if !f.FS.Has("Documents", "old_notes.txt") || f.FS.Trashed("old_notes.txt") {
		t.Fatal("the rewind did not restore the deletion")
	}
	if !f.items[old].OnScreen() {
		t.Fatal("restored row not visible")
	}
}

func TestRenameDriftsLiveIdentifier(t *testing.T) {
	f := New()
	draft := f.FS.File("Documents", "report_draft.txt")
	it := f.items[draft]
	oldGID := it.ControlID()
	si := it.Pattern(uia.SelectionItemPattern).(uia.SelectionItem)
	if err := si.Select(it); err != nil {
		t.Fatal(err)
	}
	f.mustClick(t, f.Win.FindByAutomationID("btnRenameF"))
	var ed, ok *uia.Element
	for _, w := range f.AllPopupWindows() {
		if el := w.FindByAutomationID("edRenameTo"); el != nil {
			ed = el
		}
		if el := w.FindByAutomationID("dlgRenameFOK"); el != nil {
			ok = el
		}
	}
	f.Desk.SetFocus(ed)
	if err := f.Desk.TypeText("report_final.txt"); err != nil {
		t.Fatal(err)
	}
	f.mustClick(t, ok)
	if !f.FS.Has("Documents", "report_final.txt") || f.FS.Has("Documents", "report_draft.txt") {
		t.Fatal("rename not applied to the model")
	}
	if it.ControlID() == oldGID {
		t.Fatal("rename did not drift the synthesized identifier")
	}
}

// TestCancelledRenameDoesNotLeak: a name typed into a cancelled Rename
// dialog must not be applied by a later dialog session's OK.
func TestCancelledRenameDoesNotLeak(t *testing.T) {
	f := New()
	draft := f.FS.File("Documents", "report_draft.txt")
	si := f.items[draft].Pattern(uia.SelectionItemPattern).(uia.SelectionItem)
	if err := si.Select(f.items[draft]); err != nil {
		t.Fatal(err)
	}
	find := func(autoID string) *uia.Element {
		for _, w := range f.AllPopupWindows() {
			if el := w.FindByAutomationID(autoID); el != nil {
				return el
			}
		}
		t.Fatalf("%s not found", autoID)
		return nil
	}
	// Session 1: type a name, then cancel.
	f.mustClick(t, f.Win.FindByAutomationID("btnRenameF"))
	f.Desk.SetFocus(find("edRenameTo"))
	if err := f.Desk.TypeText("evil.txt"); err != nil {
		t.Fatal(err)
	}
	f.mustClick(t, find("dlgRenameFCancel"))
	if !f.FS.Has("Documents", "report_draft.txt") {
		t.Fatal("cancel applied the rename")
	}
	// Session 2: select another file and confirm without typing.
	notes := f.FS.File("Documents", "notes.txt")
	si2 := f.items[notes].Pattern(uia.SelectionItemPattern).(uia.SelectionItem)
	if err := si2.Select(f.items[notes]); err != nil {
		t.Fatal(err)
	}
	f.mustClick(t, f.Win.FindByAutomationID("btnRenameF"))
	f.mustClick(t, find("dlgRenameFOK"))
	if f.FS.Has("Documents", "evil.txt") || !f.FS.Has("Documents", "notes.txt") {
		t.Fatal("stale pending rename leaked into a later dialog session")
	}
}

func TestPreviewSelectLinesAndCopyText(t *testing.T) {
	f := New()
	notes := f.FS.File("Documents", "notes.txt")
	f.mustClick(t, f.items[notes])
	if f.PreviewOf() != notes {
		t.Fatal("click did not open the preview")
	}
	tx := f.previewText
	if err := tx.SelectLines(f.preview, 2, 3); err != nil {
		t.Fatal(err)
	}
	f.mustClick(t, f.Win.FindByAutomationID("btnCopyText"))
	want := "Ship the quarterly report by Friday.\nReview the budget draft with finance."
	if f.FS.TextClipboard != want {
		t.Fatalf("text clipboard = %q", f.FS.TextClipboard)
	}
}

func TestModelstoreSnapshotRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("app-scale rip")
	}
	dir := t.TempDir()
	cold := modelstore.NewPersistent(dir)
	b1, err := cold.Build("Files", factory, modelstore.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	warm := modelstore.NewPersistent(dir)
	b2, err := warm.Build("Files", factory, modelstore.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !b2.FromSnapshot || b2.RipStats.Clicks != 0 {
		t.Fatalf("warm build: fromSnapshot=%v clicks=%d", b2.FromSnapshot, b2.RipStats.Clicks)
	}
	g1, _ := ung.EncodeBinary(b1.Graph)
	g2, _ := ung.EncodeBinary(b2.Graph)
	if !bytes.Equal(g1, g2) {
		t.Fatal("snapshot-restored graph differs from the ripped one")
	}
}

// TestFuzzyMatchSurvivesRename: after a live rename, a declarative access to
// the stale offline node still lands on the renamed control through the
// fuzzy matcher — the drift scenario this application exists to stress.
func TestFuzzyMatchSurvivesRename(t *testing.T) {
	if testing.Short() {
		t.Skip("app-scale rip")
	}
	g, _, err := ung.Rip(New().App, ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fr, _, err := forest.Transform(g, forest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := describe.NewModel(fr)
	node := m.FindLeafByName("report_draft.txt")
	if node == nil {
		t.Fatal("file item not modeled")
	}

	f := New()
	s := core.NewSession(f.App, m, core.Options{})
	draft := f.FS.File("Documents", "report_draft.txt")
	f.items[draft].SetName("report_final.txt")
	draft.Name = "report_final.txt"

	res := s.Visit([]core.Command{core.Access(m.ID(node))})
	if !res.OK() {
		t.Fatalf("access after rename failed: %v", res.Err)
	}
	if len(f.Selected()) != 1 || f.Selected()[0] != draft {
		t.Fatal("fuzzy match clicked the wrong control")
	}

	// The ablation without fuzzy matching must fail on the same drift.
	f2 := New()
	s2 := core.NewSession(f2.App, m, core.Options{DisableFuzzy: true, Retries: 1})
	d2 := f2.FS.File("Documents", "report_draft.txt")
	f2.items[d2].SetName("report_final.txt")
	res2 := s2.Visit([]core.Command{core.Access(m.ID(node))})
	if res2.OK() {
		t.Fatal("exact-match ablation unexpectedly found the renamed control")
	}
}

func TestCoreTopologyHasFilesAndMergeDialogs(t *testing.T) {
	if testing.Short() {
		t.Skip("app-scale rip")
	}
	g, _, err := ung.Rip(New().App, ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fr, _, err := forest.Transform(g, forest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := describe.NewModel(fr)
	core := m.Serialize(describe.CoreOptions())
	for _, want := range []string{"notes.txt", "Files Vertical Scroll Bar", "Rename"} {
		if !strings.Contains(core, want) {
			t.Errorf("core topology missing %q", want)
		}
	}
	if describe.Tokens(core) < 5000 {
		t.Errorf("core topology only %d tokens; catalog apps should be office-scale", describe.Tokens(core))
	}
}
