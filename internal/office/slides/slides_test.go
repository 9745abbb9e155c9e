package slides

import (
	"testing"

	"repro/internal/uia"
)

func click(t *testing.T, p *App, el *uia.Element) {
	t.Helper()
	if el == nil {
		t.Fatal("click target is nil")
	}
	if err := p.Desk.Click(el); err != nil {
		t.Fatalf("click %v: %v", el, err)
	}
}

func findIn(t *testing.T, root *uia.Element, autoID string) *uia.Element {
	t.Helper()
	e := root.FindByAutomationID(autoID)
	if e == nil {
		t.Fatalf("control %q not found", autoID)
	}
	return e
}

func TestScale(t *testing.T) {
	p := New(12)
	p.MaterializeAll() // count the gallery and combo items too
	n := p.Win.Count()
	for _, w := range p.AllPopupWindows() {
		n += w.Count()
	}
	if n < 3500 {
		t.Errorf("powerpoint exposes %d controls, want > 3500", n)
	}
	t.Logf("powerpoint controls: %d", n)
}

// TestBackgroundApplyToAll walks the paper's Table 1 Task 1 path:
// Design → Format Background → Solid fill → Fill Color → Blue → Apply to All.
func TestBackgroundApplyToAll(t *testing.T) {
	p := New(12)
	p.ActivateTabByName("Design")
	click(t, p, findIn(t, p.Win, "btnFormatBackground"))
	pane := p.Desk.TopWindow()
	click(t, p, pane.FindByName("Solid fill"))
	click(t, p, findIn(t, pane, "btnFillColor"))
	picker := p.Desk.TopWindow()
	click(t, p, picker.FindByName("Blue"))

	if p.Deck.Slides[0].Background != "Blue" {
		t.Fatalf("current slide background = %q", p.Deck.Slides[0].Background)
	}
	if p.Deck.Slides[5].Background == "Blue" {
		t.Fatal("Apply to All not yet clicked, but other slides changed")
	}
	// The picker (menu popup) closed itself; the Format Background pane
	// must still be open for Apply to All.
	if !p.Desk.IsOpen(pane) {
		t.Fatal("Format Background pane closed prematurely")
	}
	click(t, p, findIn(t, pane, "btnApplyToAll"))
	if !p.Deck.AllBackgrounds("Blue") {
		t.Fatal("Apply to All did not color every slide")
	}
}

func TestThumbnailScrolling(t *testing.T) {
	p := New(12)
	if !p.Thumb(0).OnScreen() || p.Thumb(11).OnScreen() {
		t.Fatal("initial thumbnail viewport wrong")
	}
	p.ScrollThumbsTo(80)
	if p.Thumb(0).OnScreen() {
		t.Fatal("slide 1 visible after scrolling to 80%")
	}
	if !p.Thumb(10).OnScreen() {
		t.Fatal("slide 11 not visible after scrolling to 80%")
	}
	// Scrollbar pattern drives the same path.
	sb := findIn(t, p.Win, "sbSlides")
	sc := sb.Pattern(uia.ScrollPattern).(uia.Scroller)
	if err := sc.SetScrollPercent(sb, uia.NoScroll, 0); err != nil {
		t.Fatal(err)
	}
	if !p.Thumb(0).OnScreen() {
		t.Fatal("scrollbar did not pan back to top")
	}
}

func TestNewSlideWithLayout(t *testing.T) {
	p := New(5)
	click(t, p, findIn(t, p.Win, "btnNewSlide"))
	gal := p.Desk.TopWindow()
	click(t, p, gal.FindByName("Title Only"))
	if len(p.Deck.Slides) != 6 {
		t.Fatalf("slides = %d, want 6", len(p.Deck.Slides))
	}
	if p.Deck.CurrentSlide().Layout != "Title Only" {
		t.Errorf("layout = %q", p.Deck.CurrentSlide().Layout)
	}
	// Thumbnails refreshed.
	if p.Thumb(5) == nil {
		t.Fatal("thumbnail for new slide missing")
	}
}

// TestScrollBarDrag: the thumbnail scrollbar is a vertical band inside the
// main window, so one drag from its top down by a quarter of its height
// raises its scroll percent and pans thumbnail 1 out of view.
func TestScrollBarDrag(t *testing.T) {
	p := New(12)
	sb := findIn(t, p.Win, "sbSlides")
	r, win := sb.Rect(), p.Win.Rect()
	if r.H <= r.W {
		t.Fatalf("scrollbar %+v is not vertical", r)
	}
	if r.X < win.X || r.Y < win.Y || r.X+r.W > win.X+win.W || r.Y+r.H > win.Y+win.H {
		t.Fatalf("scrollbar %+v lies outside the window %+v", r, win)
	}
	sc := sb.Pattern(uia.ScrollPattern).(uia.Scroller)
	_, before := sc.ScrollPercent(sb)
	x := r.X + r.W/2
	if err := p.Desk.Drag(x, r.Y, x, r.Y+r.H/4); err != nil {
		t.Fatal(err)
	}
	if _, after := sc.ScrollPercent(sb); after <= before {
		t.Fatalf("scroll percent %v after the drag, was %v", after, before)
	}
	if p.Thumb(0).OnScreen() {
		t.Fatal("slide 1 still visible after the drag")
	}
}

func TestLayoutButtonSharesGallery(t *testing.T) {
	p := New(3)
	ns := findIn(t, p.Win, "btnNewSlide")
	lay := findIn(t, p.Win, "btnLayout")
	click(t, p, ns)
	first := p.Desk.TopWindow()
	p.CloseAllPopups()
	click(t, p, lay)
	second := p.Desk.TopWindow()
	if first != second {
		t.Fatal("New Slide and Layout must open the same gallery popup (merge node)")
	}
}

func TestTransitionApplyToAll(t *testing.T) {
	p := New(8)
	p.Deck.SelectOnly(2)
	p.ActivateTabByName("Transitions")
	click(t, p, findIn(t, p.Win, "btnTransitionGallery"))
	gal := p.Desk.TopWindow()
	click(t, p, gal.FindByName("Fade"))
	if p.Deck.Slides[2].Transition != "Fade" {
		t.Fatalf("current transition = %q", p.Deck.Slides[2].Transition)
	}
	if p.Deck.Slides[0].Transition == "Fade" {
		t.Fatal("transition leaked before Apply To All")
	}
	click(t, p, findIn(t, p.Win, "btnApplyToAllTransitions"))
	if !p.Deck.AllTransitions("Fade") {
		t.Fatal("Apply To All did not set every slide")
	}
}

func TestSlideSizeMenu(t *testing.T) {
	p := New(3)
	p.ActivateTabByName("Design")
	click(t, p, findIn(t, p.Win, "btnSlideSize"))
	menu := p.Desk.TopWindow()
	click(t, p, menu.FindByName("Standard (4:3)"))
	if p.Deck.SlideSize != "Standard (4:3)" {
		t.Errorf("slide size = %q", p.Deck.SlideSize)
	}
}

func TestThumbnailSelectionSyncs(t *testing.T) {
	p := New(6)
	click(t, p, p.Thumb(3))
	if p.Deck.Current != 3 || !p.Deck.Selected[3] {
		t.Fatalf("current=%d selected=%v", p.Deck.Current, p.Deck.Selected)
	}
}

func TestTitleEditThroughValuePattern(t *testing.T) {
	p := New(4)
	p.Deck.SelectOnly(1)
	title := p.titleEl
	v := title.Pattern(uia.ValuePattern).(uia.Valuer)
	if err := v.SetValue(title, "Quarterly Review"); err != nil {
		t.Fatal(err)
	}
	if p.Deck.Slides[1].Title().Text != "Quarterly Review" {
		t.Error("title edit did not reach the model")
	}
	if p.Deck.Slides[0].Title().Text == "Quarterly Review" {
		t.Error("title edit leaked to another slide")
	}
}

func TestFontSizeAppliesToCurrentTitle(t *testing.T) {
	p := New(4)
	p.Deck.SelectOnly(1)
	cb := findIn(t, p.Win, "pFontSize")
	click(t, p, cb)
	click(t, p, cb.FindByName("48"))
	if got := p.Deck.Slides[1].Title().FontSize; got != 48 {
		t.Errorf("font size = %v", got)
	}
}

func TestSlideShowBlocklisted(t *testing.T) {
	p := New(3)
	fb := findIn(t, p.Win, "btnFromBeginning")
	if !p.Blocked(fb) {
		t.Fatal("From Beginning must be blocklisted for the ripper")
	}
}

func TestPictureContextTab(t *testing.T) {
	p := New(3)
	tab := findIn(t, p.Win, "tabPictureFormatP")
	if tab.OnScreen() {
		t.Fatal("Picture Format visible without picture")
	}
	p.ActivateTabByName("Insert")
	click(t, p, findIn(t, p.Win, "pPictures"))
	if !tab.OnScreen() {
		t.Fatal("Picture Format not revealed after insert")
	}
	click(t, p, tab)
	click(t, p, findIn(t, p.Win, "btnPictureBorderP"))
	picker := p.Desk.TopWindow()
	click(t, p, picker.FindByName("Green"))
	if p.PictureBorder != "Green" {
		t.Errorf("picture border = %q", p.PictureBorder)
	}
}

func TestHideSlide(t *testing.T) {
	p := New(4)
	p.Deck.SelectOnly(2)
	p.ActivateTabByName("Slide Show")
	click(t, p, findIn(t, p.Win, "btnHideSlide"))
	if !p.Deck.Slides[2].Hidden {
		t.Error("hide slide failed")
	}
}
