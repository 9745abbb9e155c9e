package appkit

import "repro/internal/uia"

// Deferred enumerations -------------------------------------------------------
//
// Gallery and combo-box items are most of an application's elements, yet a
// session sees only the few lists it opens. The list containers are built
// with the rest of the tree, so sibling order is fixed at construction; the
// items are built the first time they can be observed, and a built list is
// identical to the eager one (DESIGN.md §3.2).

// lazyItems is the unbuilt item list of one gallery or combo box.
type lazyItems struct {
	list     *uia.Element
	build    func()                    // adds the items under list; nil once built
	eachItem []func(item *uia.Element) // EachItem hooks, run per built item
}

// deferItems registers build as the deferred construction of list's n items.
// list must receive no other children: the items are appended when built.
func (a *App) deferItems(list *uia.Element, n int, build func()) *lazyItems {
	if n == 0 {
		return nil
	}
	l := &lazyItems{list: list, build: build}
	if a.deferred == nil {
		a.deferred = make(map[*uia.Element]*lazyItems)
	}
	a.deferred[list] = l
	a.pending = append(a.pending, l)
	return l
}

// materialize builds l's items if they are not built yet and runs the
// EachItem hooks on them.
func (a *App) materialize(l *lazyItems) {
	if l == nil || l.build == nil {
		return
	}
	// A built list is indistinguishable from a deferred one, so building
	// it is permanent growth: a pooled instance keeps the items instead of
	// logging them for its next rewind.
	log := a.Win.UndoLog()
	defer log.SetRecording(log.SetRecording(false))
	build := l.build
	l.build = nil
	delete(a.deferred, l.list)
	build()
	for _, fn := range l.eachItem {
		for _, it := range l.list.Children() {
			fn(it)
		}
	}
	l.eachItem = nil
}

// MaterializeAll builds every deferred gallery and combo-box item list, so
// the main window and the popup templates expose the application's complete
// UI surface. Readers of that whole surface — control counts, structural
// fingerprints, lookups of a control by id whether or not it is on screen —
// call it first; readers of what is on screen never need to.
func (a *App) MaterializeAll() {
	for _, l := range a.pending {
		a.materialize(l)
	}
	a.pending = nil
}

// MaterializeList builds list's items if list is a gallery or combo-box
// list whose items are still deferred; otherwise it does nothing.
func (a *App) MaterializeList(list *uia.Element) { a.materialize(a.deferred[list]) }

// EachItem calls fn on every item of a gallery or combo-box list: at once
// for a built list, otherwise on each item as the list is built, after the
// item's own click handler has been attached. Use it to wire extra behaviour
// onto list items without forcing the list to be built.
func (a *App) EachItem(list *uia.Element, fn func(item *uia.Element)) {
	if l := a.deferred[list]; l != nil {
		l.eachItem = append(l.eachItem, fn)
		return
	}
	for _, it := range list.Children() {
		fn(it)
	}
}
