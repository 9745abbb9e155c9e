package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/appkit"
	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/uia"
	"repro/internal/ung"
)

// testApp is a compact application with observable state for exercising
// every executor mechanism.
type testApp struct {
	*appkit.App
	bold    bool
	picks   []string // "<binding>=<color>"
	rows    int
	saved   string
	applied bool // dialog OK pressed
	scroll  float64
}

func newTestApp() *testApp {
	ta := &testApp{}
	a := appkit.New("TestApp")
	ta.App = a

	picker := a.ColorPicker("clr", "Colors", func(app *appkit.App, color string) {
		ta.picks = append(ta.picks, app.Binding().(string)+"="+color)
	})

	home := a.Tab("tabHome", "Home")
	font := home.Group("grpFont", "Font")
	font.ToggleButton("btnBold", "Bold",
		func(*appkit.App) bool { return ta.bold },
		func(_ *appkit.App, on bool) { ta.bold = on })
	font.MenuButton("btnFontColor", "Font Color", picker, func(*appkit.App) any { return "font" })
	font.MenuButton("btnHighlight", "Highlight", picker, func(*appkit.App) any { return "hl" })
	disabled := font.Button("btnLocked", "Locked", nil)
	disabled.SetEnabled(false)

	ins := a.Tab("tabInsert", "Insert")
	dlg := a.NewDialog("dlgTable", "Insert Table")
	var rows float64 = 2
	dlg.Panel().Spinner("spnRows", "Rows", 1, 10, 2, func(_ *appkit.App, v float64) { rows = v })
	dlg.AddOKCancel(func(*appkit.App) { ta.rows = int(rows); ta.applied = true })
	ins.Group("grpTables", "Tables").DialogButton("btnTable", "Table", dlg, nil)

	ed := home.Group("grpName", "Naming").CommitEdit("edName", "Name Box", "",
		func(_ *appkit.App, v string) { ta.saved = v })
	_ = ed

	// A tiny data grid for passive observation.
	grid := uia.NewElement("grdMini", "MiniGrid", uia.DataGridControl)
	a.Window().Custom(grid)
	for i, v := range []string{"alpha", "", "a very long cell value that overflows", ""} {
		it := uia.NewElement("", "R"+string(rune('1'+i)), uia.DataItemControl)
		it.SetPattern(uia.ValuePattern, uia.NewValue(v, nil))
		grid.AddChild(it)
	}

	// Scrollable document.
	body := a.Window().Pane("pnlBody", "Body")
	body.VScrollBar("sbMain", "Vertical Scroll Bar", func(_ *appkit.App, v float64) { ta.scroll = v })
	doc := body.Document("docMain", "Document", uia.NewText("l1\n\nl2 first\nl2 second\n\nl3"))
	_ = doc

	lst := body.List("lstItems", "Items")
	sel := uia.NewSelectionList(true, nil)
	lst.El.SetPattern(uia.SelectionPattern, sel)
	for _, n := range []string{"Item One", "Item Two", "Item Three"} {
		it := uia.NewElement("", n, uia.ListItemControl)
		it.SetPattern(uia.SelectionItemPattern, sel.Item())
		lst.El.AddChild(it)
	}

	return ta
}

// sessionFor builds the offline model by ripping a THROWAWAY instance of
// the application (ripping clicks everything, mutating state), then binds a
// session to the given fresh instance — exactly the paper's deployment: the
// model is version-specific but reusable across machines (§5.2).
func sessionFor(t *testing.T, fresh *appkit.App, build func() *appkit.App, opt Options) (*Session, *describe.Model) {
	t.Helper()
	g, _, err := ung.Rip(build(), ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := forest.Transform(g, forest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := describe.NewModel(f)
	return NewSession(fresh, m, opt), m
}

func buildTestApp() *appkit.App { return newTestApp().App }

// modelOf rips a throwaway twin of the test app and binds the session to
// the live one.
func modelOf(t *testing.T, a *appkit.App, opt Options) (*Session, *describe.Model) {
	t.Helper()
	return sessionFor(t, a, buildTestApp, opt)
}

func leafID(t *testing.T, m *describe.Model, name string) int {
	t.Helper()
	n := m.FindLeafByName(name)
	if n == nil {
		t.Fatalf("leaf %q not in model", name)
	}
	return m.ID(n)
}

func refIDTo(t *testing.T, m *describe.Model, subtreeOfLeaf *forest.Node, openerName string) int {
	t.Helper()
	tree := m.TreeOf(subtreeOfLeaf)
	if tree == "" {
		t.Fatalf("leaf %q not in a shared subtree", subtreeOfLeaf.Name)
	}
	for _, r := range m.RefsTo(tree) {
		// the ref whose path passes through the named opener
		for _, anc := range r.PathFromRoot() {
			if anc.Name == openerName {
				return m.ID(r)
			}
		}
	}
	t.Fatalf("no ref to %q via %q", tree, openerName)
	return -1
}

func TestVisitSimpleAccess(t *testing.T) {
	ta := newTestApp()
	s, m := modelOf(t, ta.App, Options{})
	res := s.Visit([]Command{Access(leafID(t, m, "Bold"))})
	if !res.OK() {
		t.Fatalf("visit failed: %v", res.Err)
	}
	if !ta.bold {
		t.Fatal("Bold not toggled")
	}
	if res.Executed[0].Target != "Bold" {
		t.Errorf("target = %q", res.Executed[0].Target)
	}
}

func TestVisitNavigatesAcrossTabs(t *testing.T) {
	ta := newTestApp()
	s, m := modelOf(t, ta.App, Options{})
	// Target lives in the Insert Table dialog: executor must click the
	// Insert tab, the Table button, then OK — from the Home base state.
	okID := -1
	var find func(n *forest.Node)
	find = func(n *forest.Node) {
		if strings.HasPrefix(n.ID, "dlgTableOK|") {
			okID = m.ID(n)
		}
		for _, c := range n.Children {
			find(c)
		}
	}
	find(m.Forest.Main)
	for _, sh := range m.Forest.Shared {
		find(sh)
	}
	if okID < 0 {
		t.Fatal("dialog OK not modeled")
	}
	res := s.Visit([]Command{Access(okID)})
	if !res.OK() {
		t.Fatalf("visit failed: %v", res.Err)
	}
	if !ta.applied {
		t.Fatal("dialog OK handler did not run")
	}
}

func TestSharedSubtreeNeedsEntryRef(t *testing.T) {
	ta := newTestApp()
	s, m := modelOf(t, ta.App, Options{})
	blue := m.FindLeafByName("Blue")
	if blue == nil || m.TreeOf(blue) == "" {
		t.Fatal("Blue should live in the externalized picker subtree")
	}
	res := s.Visit([]Command{Access(m.ID(blue))})
	if res.OK() || res.Err.Code != ErrNeedsEntryRef {
		t.Fatalf("expected needs-entry-ref, got %+v", res.Err)
	}
	if !strings.Contains(res.Err.Hint, "entry_ref_id") {
		t.Errorf("hint not actionable: %q", res.Err.Hint)
	}
}

func TestSharedSubtreePathSemantics(t *testing.T) {
	ta := newTestApp()
	s, m := modelOf(t, ta.App, Options{})
	blue := m.FindLeafByName("Blue")
	viaFont := refIDTo(t, m, blue, "Font Color")
	viaHL := refIDTo(t, m, blue, "Highlight")

	res := s.Visit([]Command{AccessRef(m.ID(blue), viaFont)})
	if !res.OK() {
		t.Fatalf("font path failed: %v", res.Err)
	}
	res = s.Visit([]Command{AccessRef(m.ID(blue), viaHL)})
	if !res.OK() {
		t.Fatalf("highlight path failed: %v", res.Err)
	}
	if len(ta.picks) != 2 || ta.picks[0] != "font=Blue" || ta.picks[1] != "hl=Blue" {
		t.Fatalf("path-dependent semantics broken: %v", ta.picks)
	}
}

func TestBadEntryRef(t *testing.T) {
	ta := newTestApp()
	s, m := modelOf(t, ta.App, Options{})
	blue := m.FindLeafByName("Blue")
	res := s.Visit([]Command{AccessRef(m.ID(blue), leafID(t, m, "Bold"))})
	if res.OK() || res.Err.Code != ErrBadEntryRef {
		t.Fatalf("expected bad-entry-ref, got %+v", res.Err)
	}
}

func TestNonLeafFiltering(t *testing.T) {
	ta := newTestApp()
	s, m := modelOf(t, ta.App, Options{})
	// Find the Font Color opener (navigation node) in the main tree.
	var opener *forest.Node
	m.Forest.Main.Walk(func(n *forest.Node) bool {
		if strings.HasPrefix(n.ID, "btnFontColor|") {
			opener = n
		}
		return true
	})
	if opener == nil || opener.IsLeaf() {
		t.Fatal("opener should be a navigation node")
	}
	cmds := []Command{
		Access(m.ID(opener)),         // navigation: filtered
		Shortcut("ENTER"),            // trailing shortcut: filtered with it
		Access(leafID(t, m, "Bold")), // functional: executed
	}
	res := s.Visit(cmds)
	if !res.OK() {
		t.Fatalf("visit failed: %v", res.Err)
	}
	if len(res.Filtered) != 2 || len(res.Executed) != 1 {
		t.Fatalf("filtered=%d executed=%d", len(res.Filtered), len(res.Executed))
	}
	if !ta.bold {
		t.Fatal("retained command did not run")
	}

	// Ablation: with filtering disabled the navigation command executes
	// (opening the picker) and the shortcut fires.
	ta2 := newTestApp()
	s2, m2 := modelOf(t, ta2.App, Options{DisableLeafFilter: true})
	var opener2 *forest.Node
	m2.Forest.Main.Walk(func(n *forest.Node) bool {
		if strings.HasPrefix(n.ID, "btnFontColor|") {
			opener2 = n
		}
		return true
	})
	res2 := s2.Visit([]Command{Access(m2.ID(opener2))})
	if !res2.OK() {
		t.Fatalf("unfiltered navigation visit failed: %v", res2.Err)
	}
	if ta2.OpenPopups() != 1 {
		t.Fatal("navigation click should have opened the picker")
	}
}

func TestAccessAndInputWithShortcut(t *testing.T) {
	ta := newTestApp()
	s, m := modelOf(t, ta.App, Options{})
	res := s.Visit([]Command{
		Input(leafID(t, m, "Name Box"), "Quarterly"),
		Shortcut("ENTER"),
	})
	if !res.OK() {
		t.Fatalf("visit failed: %v", res.Err)
	}
	if ta.saved != "Quarterly" {
		t.Fatalf("commit-on-enter broken: %q", ta.saved)
	}
}

func TestFurtherQueryExclusive(t *testing.T) {
	ta := newTestApp()
	s, m := modelOf(t, ta.App, Options{})
	res := s.Visit([]Command{FurtherQuery(-1), Access(leafID(t, m, "Bold"))})
	if res.OK() || res.Err.Code != ErrMixedQuery {
		t.Fatalf("mixed further_query accepted: %+v", res.Err)
	}
	res = s.Visit([]Command{FurtherQuery(-1)})
	if !res.OK() || !strings.Contains(res.QueryText, "main-tree:") {
		t.Fatal("full-forest query failed")
	}
	res = s.Visit([]Command{FurtherQuery(999999)})
	if res.OK() || res.Err.Code != ErrUnknownID {
		t.Fatal("bad further_query id accepted")
	}
}

func TestWindowClosePriority(t *testing.T) {
	ta := newTestApp()
	s, m := modelOf(t, ta.App, Options{})
	// Open the table dialog manually, then visit a main-window target:
	// the executor must close the dialog (OK preferred — saving
	// modifications) before reaching Bold.
	ta.ActivateTabByName("Insert")
	if err := ta.Desk.Click(ta.Win.FindByAutomationID("btnTable")); err != nil {
		t.Fatal(err)
	}
	if ta.OpenPopups() != 1 {
		t.Fatal("dialog not open")
	}
	res := s.Visit([]Command{Access(leafID(t, m, "Bold"))})
	if !res.OK() {
		t.Fatalf("visit failed: %v", res.Err)
	}
	if ta.OpenPopups() != 0 {
		t.Fatal("dialog not closed by navigation")
	}
	if !ta.applied {
		t.Fatal("close priority should pick OK first (saving modifications)")
	}
	if !ta.bold {
		t.Fatal("target not reached after closing window")
	}
}

func TestSlowLoadRetry(t *testing.T) {
	ta := newTestApp()
	s, m := modelOf(t, ta.App, Options{})
	blue := m.FindLeafByName("Blue")
	viaFont := refIDTo(t, m, blue, "Font Color")
	// Make the picker contents load lazily on every open.
	picker := ta.PopupTemplates()[0]
	picker.OnOpen = func(*appkit.App, any) {
		picker.Body.Walk(func(e *uia.Element) bool {
			if e != picker.Body {
				e.DeferVisibility(2)
			}
			return e == picker.Body
		})
	}
	res := s.Visit([]Command{AccessRef(m.ID(blue), viaFont)})
	if !res.OK() {
		t.Fatalf("retry did not absorb slow load: %v", res.Err)
	}
	if len(ta.picks) != 1 || ta.picks[0] != "font=Blue" {
		t.Fatalf("picks = %v", ta.picks)
	}

	// Ablation: without retries the same visit fails.
	ta2 := newTestApp()
	s2, m2 := modelOf(t, ta2.App, Options{DisableRetry: true})
	blue2 := m2.FindLeafByName("Blue")
	via2 := refIDTo(t, m2, blue2, "Font Color")
	picker2 := ta2.PopupTemplates()[0]
	picker2.OnOpen = func(*appkit.App, any) {
		picker2.Body.Walk(func(e *uia.Element) bool {
			if e != picker2.Body {
				e.DeferVisibility(3)
			}
			return e == picker2.Body
		})
	}
	res2 := s2.Visit([]Command{AccessRef(m2.ID(blue2), via2)})
	if res2.OK() {
		t.Fatal("visit should fail with retries disabled under slow load")
	}
}

func TestFuzzyMatchAbsorbsRename(t *testing.T) {
	ta := newTestApp()
	s, m := modelOf(t, ta.App, Options{})
	blue := m.FindLeafByName("Blue")
	viaFont := refIDTo(t, m, blue, "Font Color")
	// Rename the live control after modeling: exact ids no longer match.
	cell := ta.PopupTemplates()[0].Win.FindByName("Blue")
	cell.SetName("Blue.")
	res := s.Visit([]Command{AccessRef(m.ID(blue), viaFont)})
	if !res.OK() {
		t.Fatalf("fuzzy match failed: %v", res.Err)
	}
	// The renamed control still runs its original handler: the rename only
	// changed the accessible name.
	if len(ta.picks) != 1 || ta.picks[0] != "font=Blue" {
		t.Fatalf("picks = %v", ta.picks)
	}

	// Ablation: exact-only matching cannot find the renamed control.
	ta2 := newTestApp()
	s2, m2 := modelOf(t, ta2.App, Options{DisableFuzzy: true, Retries: 1})
	blue2 := m2.FindLeafByName("Blue")
	via2 := refIDTo(t, m2, blue2, "Font Color")
	ta2.PopupTemplates()[0].Win.FindByName("Blue").SetName("Blue.")
	res2 := s2.Visit([]Command{AccessRef(m2.ID(blue2), via2)})
	if res2.OK() {
		t.Fatal("exact matching should fail after rename")
	}
	if res2.Err.Code != ErrNotFound {
		t.Fatalf("err = %+v", res2.Err)
	}
}

func TestDisabledControlStructuredError(t *testing.T) {
	ta := newTestApp()
	s, m := modelOf(t, ta.App, Options{})
	res := s.Visit([]Command{Access(leafID(t, m, "Locked"))})
	if res.OK() || res.Err.Code != ErrDisabled {
		t.Fatalf("expected disabled error, got %+v", res.Err)
	}
	if res.Err.State != "disabled" {
		t.Errorf("state = %q", res.Err.State)
	}
}

func TestExecutionStopsAtFirstError(t *testing.T) {
	ta := newTestApp()
	s, m := modelOf(t, ta.App, Options{})
	res := s.Visit([]Command{
		Access(leafID(t, m, "Locked")), // fails
		Access(leafID(t, m, "Bold")),   // must not run
	})
	if res.OK() {
		t.Fatal("expected failure")
	}
	if ta.bold {
		t.Fatal("command after failure was executed")
	}
	if len(res.Executed) != 1 {
		t.Fatalf("executed = %d", len(res.Executed))
	}
}

func TestUnknownIDError(t *testing.T) {
	ta := newTestApp()
	s, _ := modelOf(t, ta.App, Options{})
	res := s.Visit([]Command{Access(424242)})
	if res.OK() || res.Err.Code != ErrUnknownID {
		t.Fatalf("unknown id accepted: %+v", res.Err)
	}
}

func TestParseCommands(t *testing.T) {
	raw := []byte(`[{"id": 4}, {"id": 7, "entry_ref_id": [2]}, {"id": 9, "text": "x"},
		{"shortcut_key": "ENTER"}, {"further_query": [-1]}]`)
	cmds, err := ParseCommands(raw)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{KindAccess, KindAccess, KindInput, KindShortcut, KindFurtherQuery}
	for i, k := range kinds {
		if cmds[i].Kind() != k {
			t.Errorf("cmd %d kind = %v, want %v", i, cmds[i].Kind(), k)
		}
	}
	if _, err := ParseCommands([]byte("{not json")); err == nil {
		t.Error("malformed payload accepted")
	}
	bad := Command{ID: new(int), ShortcutKey: "ENTER"}
	if bad.Kind() != KindInvalid {
		t.Error("conflicting command fields not rejected")
	}
}

// State and observation interfaces ------------------------------------------

// withStateControls adds what the test app lacks for the rest of Table 2: a
// single-select radio group, a combo box (ExpandCollapse) and a spinner
// (RangeValue).
func withStateControls(ta *testApp) *testApp {
	p := ta.Window().Pane("pnlState", "State")
	p.RadioGroup("rbSize", []string{"Small", "Large"}, nil)
	p.ComboBox("cbMode", "Mode", []string{"Fast", "Slow"}, nil)
	p.Spinner("spnLevel", "Level", 0, 10, 5, nil)
	return ta
}

// TestDeclareRows runs one declaration per row of the op table and pins
// each row's accounting: one UI action and one uiCost of simulated time per
// target, except set_range_value, which is free.
func TestDeclareRows(t *testing.T) {
	ta := withStateControls(newTestApp())
	s := NewSession(ta.App, nil, Options{})
	lm := s.CaptureLabels()
	find := func(name string, ct uia.ControlType) string {
		t.Helper()
		l := lm.Find(name, ct)
		if l == "" {
			t.Fatalf("%s not labeled", name)
		}
		return l
	}
	el := func(label string) *uia.Element { return lm.Element(label) }
	sb := find("Vertical Scroll Bar", uia.ScrollBarControl)
	doc := find("Document", uia.DocumentControl)
	one := find("Item One", uia.ListItemControl)
	two := find("Item Two", uia.ListItemControl)
	bold := find("Bold", uia.ButtonControl)
	mode := find("Mode", uia.ComboBoxControl)
	level := find("Level", uia.SpinnerControl)

	selected := func(label string) bool {
		return el(label).Pattern(uia.SelectionItemPattern).(uia.SelectionItem).IsSelected(el(label))
	}
	cases := []struct {
		d       Declaration
		actions int
		reached func() bool
	}{
		{Declaration{Op: OpScrollbar, Labels: []string{sb}, H: uia.NoScroll, V: 70}, 1,
			func() bool { return ta.scroll == 70 }},
		{Declaration{Op: OpSelectLines, Labels: []string{doc}, Start: 1, End: 1}, 1,
			func() bool { return el(doc).Pattern(uia.TextPattern).(*uia.SimpleText).SelectedText() == "l1" }},
		{Declaration{Op: OpSelectParagraphs, Labels: []string{doc}, Start: 2, End: 2}, 1,
			func() bool {
				return el(doc).Pattern(uia.TextPattern).(*uia.SimpleText).SelectedText() == "l2 first\nl2 second"
			}},
		{Declaration{Op: OpSelectControls, Labels: []string{one, two}}, 2,
			func() bool { return selected(one) && selected(two) }},
		{Declaration{Op: OpSetRangeValue, Labels: []string{level}, Value: 7}, 0,
			func() bool {
				return el(level).Pattern(uia.RangeValuePattern).(uia.RangeValuer).RangeValue(el(level)) == 7
			}},
		{Declaration{Op: OpSetToggleState, Labels: []string{bold}, On: true}, 1,
			func() bool { return ta.bold }},
		{Declaration{Op: OpSetExpanded, Labels: []string{mode}, On: true}, 1,
			func() bool {
				return el(mode).Pattern(uia.ExpandCollapsePattern).(uia.ExpandCollapser).ExpandState(el(mode)) == uia.Expanded
			}},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.d.Op] = true
		actions, now := s.Actions, s.App.Desk.Clock().Now()
		if serr := s.Declare(lm, tc.d); serr != nil {
			t.Fatalf("%s: %v", tc.d.Op, serr)
		}
		if !tc.reached() {
			t.Errorf("%s: declared state not reached", tc.d.Op)
		}
		if got := s.Actions - actions; got != tc.actions {
			t.Errorf("%s: %d actions counted, want %d", tc.d.Op, got, tc.actions)
		}
		if got, want := s.App.Desk.Clock().Now()-now, time.Duration(tc.actions)*uiCost; got != want {
			t.Errorf("%s: clock advanced %v, want %v", tc.d.Op, got, want)
		}
	}
	if len(covered) != len(stateOps) {
		t.Errorf("cases cover %d of the table's %d ops", len(covered), len(stateOps))
	}

	// Malformed declarations fail before any target is touched.
	for _, d := range []Declaration{
		{Op: "set_scrollbar_pos", Labels: []string{sb}},
		{Op: OpScrollbar},
		{Op: OpScrollbar, Labels: []string{sb, sb}},
		{Op: OpSetToggleState, Labels: []string{bold, bold}},
	} {
		actions := s.Actions
		if serr := s.Declare(lm, d); serr == nil || serr.Code != ErrInvalidCommand {
			t.Errorf("%s on %d labels: got %v, want %s", d.Op, len(d.Labels), serr, ErrInvalidCommand)
		}
		if s.Actions != actions {
			t.Errorf("%s on %d labels counted an action", d.Op, len(d.Labels))
		}
	}
}

func TestSetScrollbarPos(t *testing.T) {
	ta := newTestApp()
	s, _ := modelOf(t, ta.App, Options{})
	lm := s.CaptureLabels()
	label := lm.Find("Vertical Scroll Bar", uia.ScrollBarControl)
	if label == "" {
		t.Fatal("scrollbar not labeled")
	}
	scroll := func(label string, v float64) *StepError {
		return s.Declare(lm, Declaration{Op: OpScrollbar, Labels: []string{label}, H: uia.NoScroll, V: v})
	}
	if serr := scroll(label, 80); serr != nil {
		t.Fatal(serr)
	}
	if ta.scroll != 80 {
		t.Fatalf("scroll = %v", ta.scroll)
	}
	// Declarative: target state reached from any prior state.
	if serr := scroll(label, 10); serr != nil {
		t.Fatal(serr)
	}
	if ta.scroll != 10 {
		t.Fatal("second declaration not applied")
	}
	// Pattern validation.
	boldLabel := lm.Find("Bold", uia.ButtonControl)
	if serr := scroll(boldLabel, 0); serr == nil || serr.Code != ErrNoPattern {
		t.Fatalf("expected pattern error, got %+v", serr)
	}
}

func TestSelectLinesAndParagraphs(t *testing.T) {
	ta := newTestApp()
	s, _ := modelOf(t, ta.App, Options{})
	lm := s.CaptureLabels()
	doc := lm.Find("Document", uia.DocumentControl)
	selectRange := func(op string, start, end int) *StepError {
		return s.Declare(lm, Declaration{Op: op, Labels: []string{doc}, Start: start, End: end})
	}
	if serr := selectRange(OpSelectLines, 3, 4); serr != nil {
		t.Fatal(serr)
	}
	el := lm.Element(doc)
	tx := el.Pattern(uia.TextPattern).(*uia.SimpleText)
	if got := tx.SelectedText(); got != "l2 first\nl2 second" {
		t.Fatalf("selected %q", got)
	}
	if serr := selectRange(OpSelectParagraphs, 3, 3); serr != nil {
		t.Fatal(serr)
	}
	if got := tx.SelectedText(); got != "l3" {
		t.Fatalf("selected %q", got)
	}
	serr := selectRange(OpSelectLines, 90, 95)
	if serr == nil || serr.Code != ErrBadRange {
		t.Fatalf("bad range accepted: %+v", serr)
	}
	if !strings.Contains(serr.Hint, "lines") {
		t.Errorf("hint lacks structured status: %q", serr.Hint)
	}
}

func TestSelectControlsConservative(t *testing.T) {
	ta := withStateControls(newTestApp())
	s, _ := modelOf(t, ta.App, Options{})
	lm := s.CaptureLabels()
	one := lm.Find("Item One", uia.ListItemControl)
	three := lm.Find("Item Three", uia.ListItemControl)
	bold := lm.Find("Bold", uia.ButtonControl)
	small := lm.Find("Small", uia.RadioButtonControl)
	large := lm.Find("Large", uia.RadioButtonControl)
	selectControls := func(labels ...string) *StepError {
		return s.Declare(lm, Declaration{Op: OpSelectControls, Labels: labels})
	}

	if serr := selectControls(one, three); serr != nil {
		t.Fatal(serr)
	}
	if serr := selectControls(large); serr != nil {
		t.Fatal(serr)
	}
	selection := func() string {
		var names []string
		for _, id := range []string{"lstItems", "pnlState"} {
			c := ta.Win.FindByAutomationID(id)
			for _, e := range c.Pattern(uia.SelectionPattern).(uia.SelectionContainer).SelectedItems(c) {
				names = append(names, e.Name())
			}
		}
		return strings.Join(names, ",")
	}
	const want = "Item One,Item Three,Large"
	if got := selection(); got != want {
		t.Fatalf("selected %q, want %q", got, want)
	}

	// A declaration that fails executes nothing (conservative): neither
	// selection moves and no action is counted.
	for _, tc := range []struct {
		name   string
		labels []string
		code   ErrorCode
	}{
		{"one target lacks the pattern", []string{one, bold}, ErrNoPattern},
		{"no targets", nil, ErrInvalidCommand},
		{"two items of a single-select group", []string{small, large}, ErrBadRange},
		{"items of two containers", []string{three, small}, ErrBadRange},
	} {
		t.Run(tc.name, func(t *testing.T) {
			actions := s.Actions
			if serr := selectControls(tc.labels...); serr == nil || serr.Code != tc.code {
				t.Fatalf("got %+v, want code %s", serr, tc.code)
			}
			if got := selection(); got != want {
				t.Errorf("failed select_controls partially executed: selected %q, want %q", got, want)
			}
			if s.Actions != actions {
				t.Errorf("failed select_controls counted %d actions", s.Actions-actions)
			}
		})
	}
}

func TestToggleAndExpandedDeclarations(t *testing.T) {
	ta := withStateControls(newTestApp())
	s, _ := modelOf(t, ta.App, Options{})
	lm := s.CaptureLabels()
	declare := func(op, label string, on bool) {
		t.Helper()
		if serr := s.Declare(lm, Declaration{Op: op, Labels: []string{label}, On: on}); serr != nil {
			t.Fatal(serr)
		}
	}
	bold := lm.Find("Bold", uia.ButtonControl)
	declare(OpSetToggleState, bold, true)
	if !ta.bold {
		t.Fatal("toggle on failed")
	}
	// Idempotent: declaring "on" again must not flip it off.
	declare(OpSetToggleState, bold, true)
	if !ta.bold {
		t.Fatal("idempotent set broke")
	}
	declare(OpSetToggleState, bold, false)
	if ta.bold {
		t.Fatal("toggle off failed")
	}

	mode := lm.Find("Mode", uia.ComboBoxControl)
	cb := lm.Element(mode)
	xc := cb.Pattern(uia.ExpandCollapsePattern).(uia.ExpandCollapser)
	list := ta.Win.FindByAutomationID("cbModeList")
	for _, expanded := range []bool{true, true, false, false} {
		declare(OpSetExpanded, mode, expanded)
		if got := xc.ExpandState(cb) == uia.Expanded; got != expanded {
			t.Fatalf("declared expanded=%v, state %v", expanded, xc.ExpandState(cb))
		}
		if list.OnScreen() != expanded {
			t.Fatalf("declared expanded=%v, option list on screen=%v", expanded, list.OnScreen())
		}
	}
	if serr := s.Declare(lm, Declaration{Op: OpSetExpanded, Labels: []string{bold}}); serr == nil || serr.Code != ErrNoPattern {
		t.Fatalf("expected pattern error, got %+v", serr)
	}
}

func TestGetTextsActiveAndPassive(t *testing.T) {
	ta := newTestApp()
	s, _ := modelOf(t, ta.App, Options{})
	lm := s.CaptureLabels()

	long := lm.Find("R3", uia.DataItemControl)
	texts, serr := s.GetTexts(lm, []string{long})
	if serr != nil {
		t.Fatal(serr)
	}
	if texts[long] != "a very long cell value that overflows" {
		t.Fatalf("active get_texts truncated: %q", texts[long])
	}

	passive := s.PassiveTexts(lm, 10)
	if !strings.Contains(passive, "R1=alpha") {
		t.Errorf("passive texts missing value: %q", passive)
	}
	if strings.Contains(passive, "overflows") {
		t.Error("passive texts not truncated")
	}
	if !strings.Contains(passive, "2 empty data items omitted") {
		t.Errorf("empty items not coalesced: %q", passive)
	}

	if _, serr = s.GetTexts(lm, []string{"ZZZ"}); serr == nil || serr.Code != ErrUnknownLabel {
		t.Fatal("unknown label accepted")
	}
}

func TestLabelMap(t *testing.T) {
	ta := newTestApp()
	s, _ := modelOf(t, ta.App, Options{})
	lm := s.CaptureLabels()
	if lm.Len() == 0 {
		t.Fatal("no labels")
	}
	if lm.Element("a") == nil {
		t.Error("labels should be case-insensitive")
	}
	rendered := renderLabels(lm, 5)
	if !strings.Contains(rendered, "more controls") {
		t.Error("render limit not applied")
	}
	if got := alphaLabel(26); got != "AA" {
		t.Errorf("alphaLabel(26) = %q", got)
	}
	if got := alphaLabel(27); got != "AB" {
		t.Errorf("alphaLabel(27) = %q", got)
	}
	if !strings.Contains(renderLabels(lm, 0), "[disabled]") {
		t.Error("disabled state not rendered")
	}
}

// renderLabels produces the prompt text describing the labeled screen: one
// control per line, "label name(type)[state]", at most limit lines (0 = no
// limit).
func renderLabels(m *LabelMap, limit int) string {
	var b strings.Builder
	for i, e := range m.order {
		if limit > 0 && i >= limit {
			fmt.Fprintf(&b, "… %d more controls\n", len(m.order)-i)
			break
		}
		name := e.Name()
		if name == "" {
			name = "[Unnamed]"
		}
		fmt.Fprintf(&b, "%s %s(%s)", alphaLabel(i), name, e.Type())
		if !e.Enabled() {
			b.WriteString("[disabled]")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestLabelIndexRoundTrip: labels are positions in bijective base 26, so
// labelIndex must invert alphaLabel exactly, and Element must keep the
// semantics of the label→element map it replaced: case and surrounding
// space are ignored, and anything that is not the label of a captured
// control resolves to nil.
func TestLabelIndexRoundTrip(t *testing.T) {
	for i := 0; i < 100_000; i++ {
		if got := labelIndex(alphaLabel(i)); got != i {
			t.Fatalf("labelIndex(alphaLabel(%d) = %q) = %d", i, alphaLabel(i), got)
		}
	}

	s, _ := modelOf(t, newTestApp().App, Options{})
	lm := s.CaptureLabels()
	n := lm.Len()
	if n < 2 {
		t.Fatalf("fixture labels %d controls, want at least 2", n)
	}
	for i, e := range lm.order {
		l := alphaLabel(i)
		for _, variant := range []string{l, strings.ToLower(l), " " + l + "\t"} {
			if got := lm.Element(variant); got != e {
				t.Errorf("Element(%q) = %v, want %v", variant, got, e)
			}
		}
		if got := lm.Label(e); got != l {
			t.Errorf("Label(%v) = %q, want %q", e, got, l)
		}
	}
	for _, bad := range []string{"", "  ", "A1", "1", "-", alphaLabel(n), alphaLabel(n + 1000), "AAAAAAA", strings.Repeat("Z", 40)} {
		if got := lm.Element(bad); got != nil {
			t.Errorf("Element(%q) = %v, want nil", bad, got)
		}
	}
	if got := lm.Label(uia.NewElement("x", "Off screen", uia.ButtonControl)); got != "" {
		t.Errorf("Label of an uncaptured element = %q, want \"\"", got)
	}
}
