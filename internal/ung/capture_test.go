package ung

import (
	"slices"
	"testing"

	"repro/internal/appkit"
	"repro/internal/uia"
)

// fullWalk lists what a snapshot of d would, in the same order, with the
// control ids, but counts nothing down and advances no clock.
func fullWalk(d *uia.Desktop) (els []*uia.Element, ids []string) {
	var walk func(e *uia.Element)
	walk = func(e *uia.Element) {
		if !e.OnScreen() { // hidden, or still lazily loading
			return
		}
		els = append(els, e)
		ids = append(ids, e.ControlID())
		for _, c := range e.Children() {
			walk(c)
		}
	}
	for _, w := range d.Windows() {
		if w.Visible() {
			walk(w)
		}
	}
	return els, ids
}

// minSharedPct is the least share of captured elements, in percent, that
// a catalog rip's captures share with the previous capture instead of
// walking: one point below the shares measured when captures began to
// share observations.
var minSharedPct = map[string]float64{
	"Word": 82, "Excel": 85, "PowerPoint": 84, "Settings": 39, "Files": 90,
}

// heldObs is one observation a checkpoint's capture holds, with the copy
// of its ids taken when it was walked.
type heldObs struct {
	o   *uia.Observation
	ids []string
}

// TestCaptureMatchesFullWalk rips every catalog application, and a demo
// whose click renames a control (no catalog rip renames one: the catalog
// renames on typed text), and requires each capture the cursor takes, in
// every context, to list the elements and ids a side-effect-free walk of
// the whole desktop lists just before it, in the same order, however much
// of it the capture shares with the previous one.
//
// It keeps a copy of every observation's ids when the observation is
// walked, and after every capture requires each observation that any
// checkpoint holds to still hold the ids it was walked with: storage is
// recycled only once no checkpoint holds it. It also requires each catalog
// app's share of captured elements that were shared, not walked, to stay
// at its floor, and logs the shares.
func TestCaptureMatchesFullWalk(t *testing.T) {
	var captures, shared, total, bad, overwritten int
	var held [][]heldObs // per checkpoint, what its capture holds
	copies := make(map[*uia.Observation][]string)
	captureCheck = func(cur *Cursor, i int) func() {
		els, ids := fullWalk(cur.app.Desk)
		return func() {
			captures++
			var prev *uia.Capture
			if i > 0 {
				prev = &cur.cps[i-1].snap
			}
			snap := &cur.cps[i].snap
			var gotEls []*uia.Element
			var gotIDs []string
			for len(held) <= i {
				held = append(held, nil)
			}
			held[i] = held[i][:0]
			for _, o := range snap.Windows {
				gotEls = append(gotEls, o.Els...)
				gotIDs = append(gotIDs, o.IDs...)
				total += len(o.Els)
				if prev.Window(o.Root) == o {
					shared += len(o.Els)
				} else {
					copies[o] = slices.Clone(o.IDs)
				}
				held[i] = append(held[i], heldObs{o, copies[o]})
			}
			if bad == 0 && (!slices.Equal(gotEls, els) || !slices.Equal(gotIDs, ids)) {
				bad = captures
			}
			for j := range min(len(held), len(cur.cps)) {
				for _, h := range held[j] {
					if overwritten == 0 && !slices.Equal(h.o.IDs, h.ids) {
						overwritten = captures
					}
				}
			}
		}
	}
	defer func() { captureCheck = nil }()
	rip := func(name string, app *appkit.App) {
		captures, shared, total, bad, overwritten = 0, 0, 0, 0, 0
		held = held[:0]
		clear(copies)
		if _, _, err := Rip(app, Config{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bad > 0 {
			t.Errorf("%s: capture %d differs from a full walk of the desktop", name, bad)
		}
		if overwritten > 0 {
			t.Errorf("%s: capture %d overwrote an observation a checkpoint still holds", name, overwritten)
		}
		pct := 100 * float64(shared) / float64(total)
		t.Logf("%s: %d captures, %d of %d captured elements (%.1f%%) shared with the previous capture",
			name, captures, shared, total, pct)
		if floor, ok := minSharedPct[name]; ok && pct < floor {
			t.Errorf("%s: %.1f%% of captured elements shared, want at least %.0f%%", name, pct, floor)
		}
	}
	for _, app := range catalogFactories {
		rip(app.name, app.new())
	}
	rip("Rename demo", renameDemo())
}
