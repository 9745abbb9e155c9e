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

// TestCaptureMatchesFullWalk rips every catalog application, and a demo
// whose click renames a control (no catalog rip renames one: the catalog
// renames on typed text), and requires each capture the cursor takes, in
// every context, to list the elements and ids a side-effect-free walk of
// the whole desktop lists just before it, in the same order, however much
// of it was copied from the previous capture. It logs the share of
// captured elements that were copied.
func TestCaptureMatchesFullWalk(t *testing.T) {
	var captures, copied, total, bad int
	captureCheck = func(d *uia.Desktop) func(*uia.Capture) {
		els, ids := fullWalk(d)
		return func(c *uia.Capture) {
			captures++
			total += len(c.Els)
			for _, s := range c.Spans {
				if s.Prev >= 0 {
					copied += s.End - s.Start
				}
			}
			if bad == 0 && (!slices.Equal(c.Els, els) || !slices.Equal(c.IDs, ids)) {
				bad = captures
			}
		}
	}
	defer func() { captureCheck = nil }()
	rip := func(name string, app *appkit.App) {
		captures, copied, total, bad = 0, 0, 0, 0
		if _, _, err := Rip(app, Config{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bad > 0 {
			t.Errorf("%s: capture %d differs from a full walk of the desktop", name, bad)
		}
		t.Logf("%s: %d captures, %d of %d captured elements (%.0f%%) copied from the previous capture",
			name, captures, copied, total, 100*float64(copied)/float64(total))
	}
	for _, app := range catalogFactories {
		rip(app.name, app.new())
	}
	rip("Rename demo", renameDemo())
}
