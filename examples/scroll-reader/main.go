// Table 1, Task 2 — "show the area close to the end" — comparing the
// imperative drag loop against one declarative scrollbar state
// declaration (v = 80%).
//
//	go run ./examples/scroll-reader
//
// The drag loop reads the scrollbar's on-screen band and moves its thumb
// a quarter of the track per round, so it needs several drag-observe
// rounds (three on a 12-slide deck) where the declaration needs one.
package main

import (
	"fmt"
	"log"

	"repro/dmi"
)

func main() {
	model, err := dmi.Model(dmi.NewPowerPoint(12).App)
	if err != nil {
		log.Fatal(err)
	}

	// Imperative: iterative drag-observe rounds along the scrollbar,
	// each requiring coordinate reasoning and a visual check, until slide
	// 5 or later is the first one visible.
	app := dmi.NewPowerPoint(12)
	sb := app.Win.FindByAutomationID("sbSlides")
	r := sb.Rect()
	x := r.X + r.W/2
	rounds := 0
	for app.ThumbTop() < 4 && rounds < 10 {
		// Drag down by a guessed amount, then "look" at the result.
		if err := app.Desk.Drag(x, r.Y+10, x, r.Y+10+r.H/4); err != nil {
			log.Fatal(err)
		}
		rounds++
	}
	fmt.Printf("imperative GUI: %d drag-observe rounds; first visible slide %d\n",
		rounds, app.ThumbTop()+1)
	if app.ThumbTop() < 4 {
		fmt.Println("  (the coordinate-guessing drag loop never reached the target —")
		fmt.Println("   the fragility Figure 2b illustrates)")
	}

	// Declarative: one state declaration drives the scrollbar to the end
	// state from wherever it is.
	app2 := dmi.NewPowerPoint(12)
	s := dmi.NewSession(app2.App, model, dmi.ExecOptions{})
	lm := s.CaptureLabels()
	label := lm.Find("Slides Vertical Scroll Bar", dmi.ScrollBarControl)
	serr := s.Declare(lm, dmi.Declaration{Op: dmi.OpScrollbar, Labels: []string{label},
		H: dmi.NoScroll, V: 80})
	if serr != nil {
		log.Fatal(serr)
	}
	fmt.Printf("declarative DMI: one %s declaration (v=80%%); first visible slide %d\n",
		dmi.OpScrollbar, app2.ThumbTop()+1)
}
