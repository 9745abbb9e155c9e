// Package slides implements the simulated presentation editor: a slide-deck
// model beneath a full ribbon UI built with appkit, including the Format
// Background pane used by the paper's running example (Table 1, Task 1) and
// the slide-thumbnail scrollbar of Task 2.
package slides

import (
	"fmt"

	"repro/internal/uia"
)

// Shape is an object on a slide.
type Shape struct {
	Kind     string // "title", "body", "textbox", "picture", "shape:NAME", ...
	Text     string
	Border   string
	FontSize float64
	Fill     string
}

// Slide is one slide of the deck.
type Slide struct {
	Layout     string
	Background string
	Transition string
	Hidden     bool
	Shapes     []*Shape
}

// Title returns the slide's title shape, or nil.
func (s *Slide) Title() *Shape {
	for _, sh := range s.Shapes {
		if sh.Kind == "title" {
			return sh
		}
	}
	return nil
}

// Deck is the presentation model.
type Deck struct {
	Slides  []*Slide
	Current int // 0-based index of the slide open in the editing pane

	// Selected marks the thumbnails selected in the slide panel.
	Selected map[int]bool

	Theme     string
	SlideSize string // "Widescreen (16:9)" or "Standard (4:3)"
	Saved     string

	// PendingBackground is the color chosen in the Format Background pane
	// before it is applied (to the current slide immediately, to every
	// slide via Apply to All).
	PendingBackground string

	// owner is an element of the application showing the deck, whose undo
	// log records the current slide and the thumbnail selection
	// (uia.Store); nil for a deck without UI.
	owner *uia.Element
}

// NewDeck creates a deck with n content slides.
func NewDeck(n int) *Deck {
	d := &Deck{
		Theme:     "Office",
		SlideSize: "Widescreen (16:9)",
		Selected:  map[int]bool{0: true},
	}
	for i := 0; i < n; i++ {
		layout := "Title and Content"
		if i == 0 {
			layout = "Title Slide"
		}
		d.Slides = append(d.Slides, &Slide{
			Layout:     layout,
			Background: "White",
			Transition: "None",
			Shapes: []*Shape{
				{Kind: "title", Text: fmt.Sprintf("Slide %d Title", i+1), FontSize: 28},
				{Kind: "body", Text: fmt.Sprintf("Content for slide %d.", i+1), FontSize: 18},
			},
		})
	}
	return d
}

// CurrentSlide returns the slide open in the editing pane.
func (d *Deck) CurrentSlide() *Slide {
	if d.Current < 0 || d.Current >= len(d.Slides) {
		return nil
	}
	return d.Slides[d.Current]
}

// InsertSlide appends a new slide with the given layout after the current
// one and makes it current.
func (d *Deck) InsertSlide(layout string) *Slide {
	s := &Slide{
		Layout:     layout,
		Background: "White",
		Transition: "None",
		Shapes:     []*Shape{{Kind: "title", Text: "", FontSize: 28}},
	}
	at := d.Current + 1
	d.Slides = append(d.Slides[:at], append([]*Slide{s}, d.Slides[at:]...)...)
	uia.Store(d.owner, &d.Current, at)
	return s
}

// SetBackgroundAll applies color to every slide's background.
func (d *Deck) SetBackgroundAll(color string) {
	for _, s := range d.Slides {
		s.Background = color
	}
}

// SetTransitionAll applies the transition to every slide.
func (d *Deck) SetTransitionAll(tr string) {
	for _, s := range d.Slides {
		s.Transition = tr
	}
}

// AllBackgrounds reports whether every slide's background equals color.
func (d *Deck) AllBackgrounds(color string) bool {
	for _, s := range d.Slides {
		if s.Background != color {
			return false
		}
	}
	return len(d.Slides) > 0
}

// AllTransitions reports whether every slide's transition equals tr.
func (d *Deck) AllTransitions(tr string) bool {
	for _, s := range d.Slides {
		if s.Transition != tr {
			return false
		}
	}
	return len(d.Slides) > 0
}

// SelectOnly selects exactly the given 0-based slide index and makes it
// current.
func (d *Deck) SelectOnly(i int) {
	if i < 0 || i >= len(d.Slides) {
		return
	}
	d.Select(map[int]bool{i: true}, i)
}

// Select makes sel the selected thumbnails and slide current the one open
// in the editing pane. sel is the deck's from then on: callers build a new
// map rather than change the one Selected holds, which the undo log may
// hold too.
func (d *Deck) Select(sel map[int]bool, current int) {
	uia.Store(d.owner, &d.Selected, sel)
	uia.Store(d.owner, &d.Current, current)
}
