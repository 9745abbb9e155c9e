package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/office/excel"
	"repro/internal/office/slides"
	"repro/internal/office/word"
	"repro/internal/uia"
	"repro/internal/ung"
)

// officeSession rips a throwaway instance built by build, then binds the
// session to the live app.
func officeSession(t *testing.T, live *uia.Element, app interface{ Name() string }) {}

func makeWordSession(t *testing.T) (*word.App, *Session, *describe.Model) {
	t.Helper()
	g, _, err := ung.Rip(word.New().App, ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := forest.Transform(g, forest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := describe.NewModel(f)
	w := word.New()
	return w, NewSession(w.App, m, Options{}), m
}

func TestWordOrientationViaDMI(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale integration")
	}
	w, s, m := makeWordSession(t)
	landscape := m.FindLeafByName("Landscape")
	if landscape == nil {
		t.Fatal("Landscape not modeled")
	}
	res := s.Visit([]Command{Access(m.ID(landscape))})
	if !res.OK() {
		t.Fatalf("visit failed: %v", res.Err)
	}
	if w.Doc.Orientation != "Landscape" {
		t.Fatalf("orientation = %q", w.Doc.Orientation)
	}
}

func TestWordFontColorPathSemanticsViaDMI(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale integration")
	}
	w, s, m := makeWordSession(t)
	// NOTE: m.FindLeafByName("Blue") would find Design → Colors → "Blue"
	// (a theme color set) in the main tree — the generic-name ambiguity of
	// §3.3. The picker's standard-colors Blue lives in the externalized
	// picker subtree.
	var blue *forest.Node
	for _, id := range m.Forest.SharedOrder {
		m.Forest.Shared[id].Walk(func(n *forest.Node) bool {
			if blue == nil && n.IsLeaf() && n.Name == "Blue" &&
				strings.Contains(n.ID, "clrPickerStd") {
				blue = n
			}
			return true
		})
	}
	if blue == nil {
		t.Fatal("picker Blue cell not in any shared subtree")
	}
	tree := m.TreeOf(blue)
	if tree == "" {
		t.Fatal("picker not externalized as shared subtree")
	}
	// Pick the entry reference that routes through the Font Color opener.
	var viaFont, viaUnderline int
	for _, r := range m.RefsTo(tree) {
		for _, anc := range r.PathFromRoot() {
			if strings.HasPrefix(anc.ID, "btnFontColor|") {
				viaFont = m.ID(r)
			}
			if strings.HasPrefix(anc.ID, "btnUnderlineColor|") {
				viaUnderline = m.ID(r)
			}
		}
	}
	if viaFont == 0 || viaUnderline == 0 {
		t.Fatalf("entry refs not found (font=%d underline=%d)", viaFont, viaUnderline)
	}

	// One declarative call: select paragraphs via state declaration, then
	// two accesses through different entry references.
	lm := s.CaptureLabels()
	doc := lm.Find("Document", uia.DocumentControl)
	sel := Declaration{Op: OpSelectParagraphs, Labels: []string{doc}, Start: 1, End: 2}
	if serr := s.Declare(lm, sel); serr != nil {
		t.Fatal(serr)
	}
	res := s.Visit([]Command{AccessRef(m.ID(blue), viaFont)})
	if !res.OK() {
		t.Fatalf("font-color visit failed: %v", res.Err)
	}
	if w.Doc.Paras[0].FontColor != "Blue" || w.Doc.Paras[1].FontColor != "Blue" {
		t.Fatal("font color not applied to selection")
	}

	w.Doc.SelectParas(1, 1)
	res = s.Visit([]Command{AccessRef(m.ID(blue), viaUnderline)})
	if !res.OK() {
		t.Fatalf("underline-color visit failed: %v", res.Err)
	}
	if w.Doc.Paras[0].UnderlineColor != "Blue" {
		t.Fatal("underline path semantics broken")
	}
}

func TestSlidesTable1Task1ViaDMI(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale integration")
	}
	// The paper's headline example (Table 1, Task 1): make the background
	// blue on all slides with a single declarative call:
	// visit(["Blue", "Apply to All"]).
	g, _, err := ung.Rip(slides.New(12).App, ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := forest.Transform(g, forest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := describe.NewModel(f)
	p := slides.New(12)
	s := NewSession(p.App, m, Options{})

	// "Blue" is a generic name (the Set Up Show pen-color list has one
	// too); target the picker's standard-colors cell specifically.
	var blue *forest.Node
	lookFor := func(tree *forest.Node) {
		tree.Walk(func(n *forest.Node) bool {
			if blue == nil && n.IsLeaf() && n.Name == "Blue" &&
				strings.Contains(n.ID, "clrPickerStd") {
				blue = n
			}
			return true
		})
	}
	lookFor(m.Forest.Main)
	for _, id := range m.Forest.SharedOrder {
		lookFor(m.Forest.Shared[id])
	}
	applyAll := m.FindLeafByName("Apply to All")
	if blue == nil || applyAll == nil {
		t.Fatal("targets not modeled")
	}
	cmds := []Command{Access(m.ID(blue)), Access(m.ID(applyAll))}
	if tree := m.TreeOf(blue); tree != "" {
		// Route through the Format Background pane's Fill Color opener.
		for _, r := range m.RefsTo(tree) {
			for _, anc := range r.PathFromRoot() {
				if strings.HasPrefix(anc.ID, "btnFillColor|") {
					cmds[0] = AccessRef(m.ID(blue), m.ID(r))
				}
			}
		}
	}
	res := s.Visit(cmds)
	if !res.OK() {
		t.Fatalf("Table 1 Task 1 visit failed: %v", res.Err)
	}
	if !p.Deck.AllBackgrounds("Blue") {
		t.Fatal("backgrounds not applied to all slides")
	}
}

func TestSlidesTable1Task2ViaDMI(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale integration")
	}
	// Table 1, Task 2: show the area close to the end —
	// set_scrollbar_pos(80%) instead of an iterative drag loop.
	p := slides.New(12)
	g, _, err := ung.Rip(slides.New(12).App, ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := forest.Transform(g, forest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(p.App, describe.NewModel(f), Options{})

	lm := s.CaptureLabels()
	sb := lm.Find("Slides Vertical Scroll Bar", uia.ScrollBarControl)
	if sb == "" {
		t.Fatal("scrollbar not labeled")
	}
	if serr := s.Declare(lm, Declaration{Op: OpScrollbar, Labels: []string{sb}, H: uia.NoScroll, V: 80}); serr != nil {
		t.Fatal(serr)
	}
	sc := lm.Element(sb).Pattern(uia.ScrollPattern).(uia.Scroller)
	if _, v := sc.ScrollPercent(lm.Element(sb)); v != 80 {
		t.Fatalf("scroll position = %v", v)
	}
	if p.Thumb(10) == nil || !p.Thumb(10).OnScreen() {
		t.Fatal("end-of-deck slides not revealed")
	}
}

func TestExcelPassiveAndActiveObservation(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale integration")
	}
	g, _, err := ung.Rip(excel.New().App, ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := forest.Transform(g, forest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := excel.New()
	x.Sheet.SetValue("C2", "a very long cell value that is cut off on screen")
	s := NewSession(x.App, describe.NewModel(f), Options{})

	lm := s.CaptureLabels()
	passive := s.PassiveTexts(lm, 16)
	if !strings.Contains(passive, "B2=120") {
		t.Errorf("passive texts missing cell: %q", passive)
	}
	if strings.Contains(passive, "cut off on screen") {
		t.Error("passive texts not truncated")
	}
	label := lm.Find("C2", uia.DataItemControl)
	texts, serr := s.GetTexts(lm, []string{label})
	if serr != nil {
		t.Fatal(serr)
	}
	if texts[label] != "a very long cell value that is cut off on screen" {
		t.Errorf("active read truncated: %q", texts[label])
	}
}

func TestExcelNameBoxCommitViaDMI(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale integration")
	}
	g, _, err := ung.Rip(excel.New().App, ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := forest.Transform(g, forest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := describe.NewModel(f)
	x := excel.New()
	s := NewSession(x.App, m, Options{})

	nameBox := m.FindLeafByName("Name Box")
	if nameBox == nil {
		t.Fatal("Name Box not modeled")
	}
	res := s.Visit([]Command{
		Input(m.ID(nameBox), "B25"),
		Shortcut("ENTER"),
	})
	if !res.OK() {
		t.Fatalf("visit failed: %v", res.Err)
	}
	if x.Sheet.ActiveCell != "B25" {
		t.Fatalf("active cell = %q", x.Sheet.ActiveCell)
	}
}

// TestDeepestVisibleMatchesIDMap: the one-pass chain match must give the
// answer of the per-round id map it replaced — first on-screen occurrence
// of an id wins, window roots never match — with each step's fuzzy
// fallback tried before the next shallower step, as before. Chains mix
// on-screen ids, window-root ids, duplicates, renamed controls (fuzzy
// matches) and absent ids, and run past the stack array's length.
func TestDeepestVisibleMatchesIDMap(t *testing.T) {
	app := word.New()
	first := uia.NewElement("btnDup", "Dup", uia.ButtonControl)
	first.SetEnabled(false)
	app.Win.AddChild(first)
	app.Win.AddChild(uia.NewElement("btnDup", "Dup", uia.ButtonControl))
	snap := app.Desk.Snapshot(nil)

	var pool []*forest.Node
	for _, e := range snap {
		pool = append(pool, &forest.Node{Node: &ung.Node{ID: e.ControlID(), Name: e.Name(), Type: e.Type()}})
		if e.Parent() != nil && e.Type() == uia.ButtonControl {
			primary, _, anc := uia.SplitControlID(e.ControlID())
			pool = append(pool, &forest.Node{Node: &ung.Node{ID: primary + "2|Button|" + anc, Name: e.Name() + " ", Type: e.Type()}})
		}
	}
	pool = append(pool, &forest.Node{Node: &ung.Node{ID: "absent|Button|nowhere", Name: "Absent", Type: uia.ButtonControl}})
	rng := rand.New(rand.NewSource(1))
	for _, disableFuzzy := range []bool{false, true} {
		s := NewSession(app.App, nil, Options{DisableFuzzy: disableFuzzy})
		for trial := 0; trial < 200; trial++ {
			chain := make([]*forest.Node, 1+rng.Intn(24))
			for i := range chain {
				chain[i] = pool[rng.Intn(len(pool))]
			}
			if trial%4 == 0 {
				chain[len(chain)-1] = &forest.Node{Node: &ung.Node{ID: first.ControlID(), Name: "Dup", Type: uia.ButtonControl}}
			}
			gotI, gotEl := s.deepestVisible(chain, snap)
			wantI, wantEl := deepestVisibleByMap(s, chain, snap)
			if gotI != wantI || gotEl != wantEl {
				t.Fatalf("fuzzy off=%v, trial %d: deepestVisible = (%d, %v), id map gives (%d, %v)",
					disableFuzzy, trial, gotI, gotEl, wantI, wantEl)
			}
		}
	}
}

// deepestVisibleByMap is the reference: index the screen by control id,
// window roots skipped and first occurrence winning, then take the deepest
// step found by id or, failing that, by the fuzzy matcher.
func deepestVisibleByMap(s *Session, chain []*forest.Node, snap []*uia.Element) (int, *uia.Element) {
	byID := make(map[string]*uia.Element)
	for _, e := range snap {
		if e.Parent() == nil {
			continue
		}
		if _, dup := byID[e.ControlID()]; !dup {
			byID[e.ControlID()] = e
		}
	}
	for i := len(chain) - 1; i >= 0; i-- {
		if el, ok := byID[chain[i].ID]; ok {
			return i, el
		}
		if s.Opt.DisableFuzzy {
			continue
		}
		if el := s.fuzzyFind(chain[i], snap); el != nil {
			return i, el
		}
	}
	return -1, nil
}
