package uia

import (
	"maps"
	"slices"
	"time"
)

// Undo log --------------------------------------------------------------------
//
// A pooled application instance serves one session after another, so
// between sessions it must return to exactly the state it was handed out
// in; a rip instance backtracks along click paths, so it must return to
// exactly the state of an earlier step. Every element mutator (SetName,
// SetDescription, SetEnabled, SetVisible, SetRect, AddChild, RemoveChild,
// DeferVisibility, SetPattern, and the snapshot's lazy-loading countdown)
// and every setter of the state-backed providers in providers.go is a
// seam: while the instance's log is recording, it first appends the old
// value, and Rewind replays the log backwards — RewindTo only as far back
// as a Mark. Elements of a fresh build have no log and pay one nil check
// per mutation.
//
// The same seam keeps each window root's structural generation, which
// changes on every mutation a capture can see (see structural), so a
// capture can share an earlier capture's observation of an unchanged
// window instead of walking it (Desktop.Capture).

// UndoLog records the old values of the mutations made to one application
// instance's elements and provider state while recording is on. It belongs
// to one instance and, like the instance, to one goroutine at a time.
type UndoLog struct {
	on      bool
	entries []undoEntry

	// gens holds the structural generation of every window root a
	// structural mutation reached, and next the last generation number
	// handed out.
	gens map[*Element]windowGen
	next uint64
}

// windowGen is a window root's structural generation. While it is equal,
// a walk of the window lists the same elements with the same ids: n
// identifies the newest logged structural mutation under the root that has
// not been rewound (numbers are never reused, so after a rewind past that
// mutation no later one brings its number back), and epoch counts the
// unlogged ones, which no rewind undoes and so none restores.
type windowGen struct {
	n, epoch uint64
}

type undoOp uint8

const (
	undoName undoOp = iota
	undoDesc
	undoEnabled
	undoVisible
	undoRect
	undoDefer
	undoAddChild
	undoRemoveChild
	undoPattern    // provider at index at replaced
	undoPatternAdd // provider appended
	undoFunc       // state outside the elements: run fn
)

// undoEntry is one logged mutation; only the fields its op names are set.
// A structural mutation also keeps its window root and the root's
// generation number before it.
type undoEntry struct {
	op    undoOp
	flag  bool
	n     int32
	at    int
	el    *Element
	child *Element
	str   string
	rect  Rect
	prov  any
	fn    func()
	root  *Element
	gen   uint64
}

// NewUndoLog returns an empty log that is not recording.
func NewUndoLog() *UndoLog { return &UndoLog{gens: make(map[*Element]windowGen)} }

// Attach makes l the undo log of every element in the trees rooted at
// roots. Elements added under them later join it through AddChild.
func (l *UndoLog) Attach(roots ...*Element) {
	for _, r := range roots {
		r.Walk(func(e *Element) bool { e.log = l; return true })
	}
}

// SetRecording turns recording on or off and reports whether it was on. A
// nil log never records.
func (l *UndoLog) SetRecording(on bool) (was bool) {
	if l == nil {
		return false
	}
	was, l.on = l.on, on
	return was
}

// Rewind turns recording off and undoes every logged mutation, newest
// first, so the instance's elements and provider state return to what they
// were when recording began. The log is empty afterwards and keeps its
// storage for the next session.
func (l *UndoLog) Rewind() {
	l.on = false
	l.RewindTo(0)
}

// Mark returns the log's current position, for RewindTo. Marks nest: a
// rewind to one mark discards every mark taken after it.
func (l *UndoLog) Mark() int { return len(l.entries) }

// RewindTo undoes the mutations logged since mark, newest first, so the
// elements and provider state, and the window generation numbers, return
// to what they were when Mark returned it. Recording stays as it is.
func (l *UndoLog) RewindTo(mark int) {
	for i := len(l.entries) - 1; i >= mark; i-- {
		u := &l.entries[i]
		e := u.el
		switch u.op {
		case undoName:
			e.name = u.str
			e.invalidateIDs()
		case undoDesc:
			e.desc = u.str
		case undoEnabled:
			e.enabled = u.flag
		case undoVisible:
			e.visible = u.flag
		case undoRect:
			e.rect = u.rect
		case undoDefer:
			e.deferVisible = u.n
		case undoAddChild:
			// Every later mutation is already undone, so the child is last.
			e.children = e.children[:len(e.children)-1]
			u.child.parent = nil
			u.child.invalidateIDs()
		case undoRemoveChild:
			e.children = slices.Insert(e.children, u.at, u.child)
			u.child.parent = e
			u.child.invalidateIDs()
		case undoPattern:
			e.patterns[u.at].provider = u.prov
		case undoPatternAdd:
			e.patterns = e.patterns[:len(e.patterns)-1]
		case undoFunc:
			u.fn()
		}
		if u.root != nil {
			g := l.gens[u.root]
			g.n = u.gen
			l.gens[u.root] = g
		}
		*u = undoEntry{}
	}
	l.entries = l.entries[:mark]
}

func (l *UndoLog) push(u undoEntry) { l.entries = append(l.entries, u) }

// structural records u, a mutation of e that a capture can see: SetName
// (ids), SetVisible, AddChild, RemoveChild and the deferral countdown.
// Every other mutation leaves what a capture lists as it is. It gives e's
// window root a new generation: while the log records, it appends u with
// the root's old generation number, which RewindTo puts back; otherwise it
// bumps the root's epoch. An unlogged structural mutation under a logged
// tree, such as a deferred list's build (appkit), stays when the log
// rewinds; the epoch keeps a capture from ever reusing a stretch taken
// before it.
//
// A tree's elements share their root's log: Attach and AddChild keep it so.
func (l *UndoLog) structural(e *Element, u undoEntry) {
	r := e.Root()
	g := l.gens[r]
	if l.on {
		u.root, u.gen = r, g.n
		l.push(u)
		l.next++
		g.n = l.next
	} else {
		g.epoch++
	}
	l.gens[r] = g
}

// generation returns the structural generation of e's window, e being its
// root, and false when no log tracks it.
func (e *Element) generation() (windowGen, bool) {
	if e.log == nil {
		return windowGen{}, false
	}
	return e.log.gens[e], true
}

// UndoLog returns the undo log of the pooled instance e belongs to, or nil.
func (e *Element) UndoLog() *UndoLog { return e.log }

// recorder returns e's undo log if it is recording, else nil.
func (e *Element) recorder() *UndoLog {
	if e == nil || e.log == nil || !e.log.on {
		return nil
	}
	return e.log
}

// Store sets *p to v. While the undo log of owner's instance is recording,
// it first logs the old value, so Rewind restores it. Providers and
// appkit's choice lists use it for state that lives outside the elements:
// any element of the instance serves as owner.
func Store[T any](owner *Element, p *T, v T) {
	if l := owner.recorder(); l != nil {
		old := *p
		l.push(undoEntry{op: undoFunc, fn: func() { *p = old }})
	}
	*p = v
}

// storeSet logs the contents of a set-valued provider field before a
// mutation (see Store).
func storeSet[K comparable](owner *Element, m map[K]bool) {
	if l := owner.recorder(); l != nil {
		old := maps.Clone(m)
		l.push(undoEntry{op: undoFunc, fn: func() {
			clear(m)
			maps.Copy(m, old)
		}})
	}
}

// DeskState is what sessions change on a Desktop outside its elements: the
// simulated clock, the snapshot count, the keyboard focus and the window
// stack.
type DeskState struct {
	now       time.Duration
	snapshots int
	focus     *Element
	windows   []*Element
}

// SaveState stores the desktop's clock, snapshot count, focus and window
// stack in s. The stack is copied into s's own storage, so a state saved
// again and again allocates only when the stack outgrows it.
func (d *Desktop) SaveState(s *DeskState) {
	s.now, s.snapshots, s.focus = d.clock.now, d.snapshots, d.focus
	s.windows = append(s.windows[:0], d.windows...)
}

// RestoreState puts back what SaveState captured.
func (d *Desktop) RestoreState(s DeskState) {
	d.clock.now = s.now
	d.snapshots = s.snapshots
	d.focus = s.focus
	d.windows = append(d.windows[:0], s.windows...)
}
