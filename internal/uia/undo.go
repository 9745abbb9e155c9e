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
// in. Every element mutator (SetName, SetDescription, SetEnabled,
// SetVisible, SetRect, AddChild, RemoveChild, DeferVisibility, SetPattern,
// and the snapshot's lazy-loading countdown) and every setter of the
// state-backed providers in providers.go is a seam: while the instance's
// log is recording, it first appends the old value, and Rewind replays the
// log backwards. Elements of a fresh build or a rip instance have no log and
// pay one nil check per mutation.

// UndoLog records the old values of the mutations made to one application
// instance's elements and provider state while recording is on. It belongs
// to one instance and, like the instance, to one goroutine at a time.
type UndoLog struct {
	on      bool
	entries []undoEntry
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
}

// NewUndoLog returns an empty log that is not recording.
func NewUndoLog() *UndoLog { return &UndoLog{} }

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
	for i := len(l.entries) - 1; i >= 0; i-- {
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
		*u = undoEntry{}
	}
	l.entries = l.entries[:0]
}

func (l *UndoLog) push(u undoEntry) { l.entries = append(l.entries, u) }

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

// SaveState captures the desktop's clock, snapshot count, focus and window
// stack.
func (d *Desktop) SaveState() DeskState {
	return DeskState{now: d.clock.now, snapshots: d.snapshots, focus: d.focus, windows: slices.Clone(d.windows)}
}

// RestoreState puts back what SaveState captured. Window listeners do not
// fire.
func (d *Desktop) RestoreState(s DeskState) {
	d.clock.now = s.now
	d.snapshots = s.snapshots
	d.focus = s.focus
	d.windows = append(d.windows[:0], s.windows...)
}
