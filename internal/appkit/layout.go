package appkit

import "repro/internal/uia"

// Layout assigns deterministic bounding rectangles to every element of the
// application: the main window and all popup templates. The GUI-only
// baseline grounds its clicks and drags in these coordinates, so layout must
// be stable across runs; visual fidelity is irrelevant.
//
// The scheme is a simple recursive flow layout: containers receive their
// parent's rectangle inset by a margin, and leaf controls flow left-to-right
// in fixed-size cells, wrapping at the container edge.
//
// A list whose items are deferred (lazy.go) is laid out as the container its
// built items will make it: it counts as that many leaves and receives its
// band now, and its items get their cells when they are built.
func (a *App) Layout() {
	a.layoutTree(a.Win)
	for _, p := range a.allPopups() {
		a.layoutTree(p.Win)
	}
}

// AllPopupWindows returns the root window element of every popup template
// the application has created, whether or not it is currently open. Tooling
// (control counting, offline modeling statistics) uses this to enumerate the
// complete UI surface.
func (a *App) AllPopupWindows() []*uia.Element {
	ps := a.allPopups()
	out := make([]*uia.Element, 0, len(ps))
	for _, p := range ps {
		out = append(out, p.Win)
	}
	return out
}

func (a *App) allPopups() []*Popup {
	seen := make(map[*Popup]bool)
	var out []*Popup
	var add func(p *Popup)
	add = func(p *Popup) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		out = append(out, p)
	}
	for _, p := range a.popups {
		add(p)
	}
	for _, p := range a.popupTemplates {
		add(p)
	}
	return out
}

const (
	cellW   = 110
	cellH   = 22
	inset   = 4
	rowGap  = 2
	colGap  = 4
	minSide = 12
)

func (a *App) layoutTree(root *uia.Element) {
	r := root.Rect()
	if r.Empty() {
		r = uia.Rect{X: 400, Y: 200, W: 480, H: 560}
		root.SetRect(r)
	}
	a.layoutChildren(root, inner(r))
}

func inner(r uia.Rect) uia.Rect {
	return uia.Rect{X: r.X + inset, Y: r.Y + inset, W: max(r.W-2*inset, minSide), H: max(r.H-2*inset, minSide)}
}

// layoutChildren flows children into region. Containers get a full-width
// band whose height is proportional to their subtree size; leaves get fixed
// cells.
func (a *App) layoutChildren(e *uia.Element, region uia.Rect) {
	if l := a.deferred[e]; l != nil {
		l.region = region
		return
	}
	children := e.Children()
	if len(children) == 0 {
		return
	}
	x, y := region.X, region.Y
	rowH := 0
	for _, c := range children {
		if len(c.Children()) > 0 || a.deferred[c] != nil {
			// Container: allocate a band and recurse.
			if x > region.X { // start a fresh row
				x = region.X
				y += rowH + rowGap
				rowH = 0
			}
			rows := (a.leafCount(c) + 7) / 8
			h := rows*(cellH+rowGap) + 2*inset
			band := uia.Rect{X: region.X, Y: y, W: region.W, H: h}
			c.SetRect(band)
			a.layoutChildren(c, inner(band))
			y += h + rowGap
			continue
		}
		// Leaf: place in the current row, wrapping at the edge.
		if x+cellW > region.X+region.W && x > region.X {
			x = region.X
			y += cellH + rowGap
		}
		c.SetRect(uia.Rect{X: x, Y: y, W: cellW, H: cellH})
		x += cellW + colGap
		if cellH > rowH {
			rowH = cellH
		}
	}
}

// leafCount counts the leaves below e, each deferred list as the items it
// will hold.
func (a *App) leafCount(e *uia.Element) int {
	n := 0
	e.Walk(func(x *uia.Element) bool {
		if len(x.Children()) > 0 {
			return true
		}
		if l := a.deferred[x]; l != nil {
			n += l.n
		} else {
			n++
		}
		return true
	})
	return n
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
