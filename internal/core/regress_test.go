package core

// Regression tests for executor correctness fixes: passive-observation
// ordering, active-observation result keying, and primitive-action
// accounting during window-closing navigation.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/appkit"
	"repro/internal/forest"
	"repro/internal/uia"
	"repro/internal/ung"
)

// TestPassiveTextsEmitsCaptureOrder: the passive payload must list data
// items in capture order. Sorting the rendered lines lexicographically by
// label diverges once a screen exceeds 26 controls ("AA" sorts before "B"),
// making the prompt order disagree with the labeling the LLM sees.
func TestPassiveTextsEmitsCaptureOrder(t *testing.T) {
	a := appkit.New("GridApp")
	grid := uia.NewElement("grdBig", "BigGrid", uia.DataGridControl)
	a.Window().Custom(grid)
	for i := 0; i < 30; i++ {
		it := uia.NewElement("", fmt.Sprintf("C%02d", i), uia.DataItemControl)
		it.SetPattern(uia.ValuePattern, uia.NewValue(fmt.Sprintf("v%d", i), nil))
		grid.AddChild(it)
	}

	s := NewSession(a, nil, Options{})
	lm := s.CaptureLabels()

	var want []string
	for i, e := range lm.order {
		if e.Type() != uia.DataItemControl {
			continue
		}
		v, _ := e.Pattern(uia.ValuePattern).(uia.Valuer)
		want = append(want, fmt.Sprintf("%s %s=%s", alphaLabel(i), e.Name(), v.Value(e)))
	}
	if len(want) != 30 {
		t.Fatalf("expected 30 data items on screen, got %d", len(want))
	}
	// The fixture must actually exercise the divergence: with >26 labeled
	// controls, capture order and lexicographic label order disagree.
	sorted := append([]string(nil), want...)
	sort.Strings(sorted)
	if strings.Join(sorted, "\n") == strings.Join(want, "\n") {
		t.Fatal("fixture too small: lexicographic order equals capture order")
	}

	got := s.PassiveTexts(lm, 24)
	if got != strings.Join(want, "\n")+"\n" {
		t.Errorf("passive texts not in capture order:\ngot:\n%swant:\n%s",
			got, strings.Join(want, "\n")+"\n")
	}
}

// TestGetTextsKeyedByCallerLabel: callers index the result with the label
// they passed; keying by the normalized (upper-cased, trimmed) label loses
// lookups for any caller that passes a lower-case or padded label.
func TestGetTextsKeyedByCallerLabel(t *testing.T) {
	ta := newTestApp()
	s, _ := modelOf(t, ta.App, Options{})
	lm := s.CaptureLabels()

	canonical := lm.Find("R1", uia.DataItemControl)
	if canonical == "" {
		t.Fatal("R1 not labeled")
	}
	passed := " " + strings.ToLower(canonical) + " "
	texts, serr := s.GetTexts(lm, []string{passed})
	if serr != nil {
		t.Fatal(serr)
	}
	if texts[passed] != "alpha" {
		t.Errorf("result not keyed by the caller's label %q: %v", passed, texts)
	}
	if len(texts) != 1 {
		t.Errorf("expected exactly one entry, got %v", texts)
	}
}

// TestMatchScoreIgnoresEmptyNames: the fuzzy matcher's name channel must
// stay silent when either side has no name — Similarity("", "") is 1 (they
// are equal strings), which would otherwise override a low identifier
// similarity and perfectly name-match any unnamed control to any unnamed
// step.
func TestMatchScoreIgnoresEmptyNames(t *testing.T) {
	step := &forest.Node{Node: &ung.Node{ID: "btnSave|Button|Home/Font", Name: ""}}
	withNames := matchScore(step, "txtInput", "", []string{"Home", "Font"})
	// Identifier similarity for btnSave vs txtInput is low; with full
	// ancestor overlap the score must stay under the default fuzzy
	// threshold instead of being lifted to 0.7×1 + 0.3×1 = 1.
	if withNames >= fuzzyThreshold {
		t.Errorf("score %v for unrelated unnamed controls reaches the fuzzy threshold %v",
			withNames, fuzzyThreshold)
	}
	// A genuine name match must still win.
	named := &forest.Node{Node: &ung.Node{ID: "btnSave|Button|Home/Font", Name: "Save As"}}
	if s := matchScore(named, "generated-id", "Save  as", []string{"Home", "Font"}); s < fuzzyThreshold {
		t.Errorf("matching names scored %v, below threshold %v", s, fuzzyThreshold)
	}
}

// stubbornApp has a dialog whose OK button does nothing (the dialog stays
// open), so closing it during navigation costs two primitive actions: the
// useless OK click plus the title-bar Close click.
func stubbornApp() *appkit.App {
	a := appkit.New("StubApp")
	home := a.Tab("tabHome", "Home")
	home.Group("grpMain", "Main").Button("btnGo", "Go", nil)

	dlg := a.NewDialog("dlgStub", "Stubborn")
	dlg.Panel().Button("dlgStubOK", "OK", nil) // does not close the dialog
	ins := a.Tab("tabIns", "Insert")
	ins.Group("grpDlg", "Dialogs").DialogButton("btnStub", "Stub", dlg, nil)
	return a
}

// TestWindowCloseActionAccounting: closeTopWindow can spend several
// primitive actions (OK/Close/Cancel clicks, Esc); every one of them must
// show up in the command's Clicks, not a flat 1 per closed window. The
// invariant checked is exact: for a pure access command, the reported
// Clicks equal the session's primitive-action counter.
func TestWindowCloseActionAccounting(t *testing.T) {
	app := stubbornApp()
	s, m := sessionFor(t, app, stubbornApp, Options{})

	// Open the stubborn dialog, then visit a main-window target: the
	// executor must close the dialog first.
	app.ActivateTabByName("Insert")
	if err := app.Desk.Click(app.Win.FindByAutomationID("btnStub")); err != nil {
		t.Fatal(err)
	}
	if app.OpenPopups() != 1 {
		t.Fatal("dialog not open")
	}

	if s.Actions != 0 {
		t.Fatalf("fresh session has %d actions", s.Actions)
	}
	res := s.Visit([]Command{Access(leafID(t, m, "Go"))})
	if !res.OK() {
		t.Fatalf("visit failed: %v", res.Err)
	}
	if app.OpenPopups() != 0 {
		t.Fatal("dialog not closed by navigation")
	}
	if got := res.Executed[0].Clicks; got != s.Actions {
		t.Errorf("Clicks = %d, session actions = %d; closing actions under-counted",
			got, s.Actions)
	}
	// Closing the stubborn dialog costs at least the no-op OK click plus
	// the Close click, then navigation needs at least the final target
	// click — anything below 3 means the old flat clicks++ is back.
	if res.Executed[0].Clicks < 3 {
		t.Errorf("Clicks = %d, want ≥ 3 (OK + Close + target)", res.Executed[0].Clicks)
	}
}
