package uia

import (
	"fmt"
	"math"
	"strings"
)

// Rect is a bounding rectangle in virtual screen coordinates.
type Rect struct {
	X, Y, W, H int
}

// Contains reports whether the point (x, y) lies inside the rectangle.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X && x < r.X+r.W && y >= r.Y && y < r.Y+r.H
}

// Center returns the midpoint of the rectangle.
//
//dmi:testonly appkit and uia tests aim clicks at a control's centre
func (r Rect) Center() (x, y int) { return r.X + r.W/2, r.Y + r.H/2 }

// Empty reports whether the rectangle has zero area.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Element is a node in an accessibility tree: one UI control. Elements are
// mutable; applications wire behaviour in with pattern providers and click
// handlers, and mutate the tree as interaction proceeds (menus opening, tabs
// switching, dialogs appearing).
//
// The zero value is not useful; create elements with NewElement.
type Element struct {
	automationID string
	name         string
	desc         string

	// ctype is the ControlType in one byte (the 41 types fit), so that the
	// flags and deferVisible share its word and the undo-log pointer below
	// still leaves an Element in the 208-byte allocation size class.
	ctype     uint8
	enabled   bool
	visible   bool
	largeEnum bool // large enumeration (font list, symbol grid): pruned from core topologies
	// deferVisible implements lazy loading: while > 0, the element is
	// excluded from snapshots and each snapshot observation decrements it.
	deferVisible int32
	rect         Rect

	parent   *Element
	children []*Element

	patterns []patternEntry // nil until a pattern is set; at most a few entries
	onClick  []func(e *Element)

	// idCache is the synthesized control ID and pathCache the slash-joined
	// primary ids from the root down to this element. Both are built on
	// first use and cleared by invalidateIDs on renames and re-parenting.
	idCache   string
	pathCache string

	// log is the undo log of the pooled instance the element belongs to,
	// nil for elements of a fresh build or a rip instance (undo.go).
	log *UndoLog
}

// NewElement creates a visible, enabled element.
func NewElement(automationID, name string, t ControlType) *Element {
	return &Element{
		automationID: automationID,
		name:         name,
		ctype:        uint8(t),
		enabled:      true,
		visible:      true,
	}
}

// patternEntry is one attached control-pattern provider. Elements carry at
// most a handful of patterns, so a short scan beats a per-element map and
// leaves pattern-free elements (most of a tree) allocation-free.
type patternEntry struct {
	id       PatternID
	provider any
}

// AutomationID returns the (not necessarily unique) automation identifier.
func (e *Element) AutomationID() string { return e.automationID }

// Name returns the control name.
func (e *Element) Name() string { return e.name }

// SetName renames the control. Renames happen in real applications (the
// paper's example: Word's "Next" button becoming "Go To") and invalidate the
// synthesized identifiers of the whole subtree.
func (e *Element) SetName(name string) {
	if e.name == name {
		return
	}
	if e.log != nil {
		e.log.structural(e, undoEntry{op: undoName, el: e, str: e.name})
	}
	e.name = name
	e.invalidateIDs()
}

// Type returns the control type.
func (e *Element) Type() ControlType { return ControlType(e.ctype) }

// Description returns the full_description accessibility property.
func (e *Element) Description() string { return e.desc }

// SetDescription sets the full_description accessibility property.
func (e *Element) SetDescription(d string) {
	if l := e.recorder(); l != nil && e.desc != d {
		l.push(undoEntry{op: undoDesc, el: e, str: e.desc})
	}
	e.desc = d
}

// Enabled reports whether the control accepts interaction.
func (e *Element) Enabled() bool { return e.enabled }

// SetEnabled enables or disables the control.
//
//dmi:testonly substrate API; uia, core and agent tests disable controls with it
func (e *Element) SetEnabled(v bool) {
	if l := e.recorder(); l != nil && e.enabled != v {
		l.push(undoEntry{op: undoEnabled, el: e, flag: e.enabled})
	}
	e.enabled = v
}

// Visible reports the element's own visibility flag. Use OnScreen to check
// whether the element is actually exposed (all ancestors visible too).
func (e *Element) Visible() bool { return e.visible }

// SetVisible sets the element's own visibility flag.
func (e *Element) SetVisible(v bool) {
	if e.log != nil && e.visible != v {
		e.log.structural(e, undoEntry{op: undoVisible, el: e, flag: e.visible})
	}
	e.visible = v
}

// LargeEnum reports whether this element roots a large enumeration (such as
// a font list) that core-topology extraction prunes (paper §3.3).
func (e *Element) LargeEnum() bool { return e.largeEnum }

// MarkLargeEnum flags the element as a large enumeration root.
func (e *Element) MarkLargeEnum() { e.largeEnum = true }

// Rect returns the element's bounding rectangle.
func (e *Element) Rect() Rect { return e.rect }

// SetRect sets the element's bounding rectangle.
func (e *Element) SetRect(r Rect) {
	if l := e.recorder(); l != nil && e.rect != r {
		l.push(undoEntry{op: undoRect, el: e, rect: e.rect})
	}
	e.rect = r
}

// Parent returns the parent element, or nil at a tree root.
func (e *Element) Parent() *Element { return e.parent }

// Children returns the child slice. Callers must not mutate it.
func (e *Element) Children() []*Element { return e.children }

// AddChild appends child (and its subtree) under e. A subtree added under
// an element of a pooled instance joins that instance's undo log.
func (e *Element) AddChild(child *Element) {
	if child.parent != nil {
		child.parent.RemoveChild(child)
	}
	if e.log != nil && child.log != e.log {
		child.Walk(func(n *Element) bool { n.log = e.log; return true })
	}
	if e.log != nil {
		e.log.structural(e, undoEntry{op: undoAddChild, el: e, child: child})
	}
	child.parent = e
	child.invalidateIDs()
	e.children = append(e.children, child)
}

// RemoveChild detaches child from e. It is a no-op if child is not a child
// of e.
func (e *Element) RemoveChild(child *Element) {
	for i, c := range e.children {
		if c == child {
			if e.log != nil {
				e.log.structural(e, undoEntry{op: undoRemoveChild, el: e, child: child, at: i})
			}
			e.children = append(e.children[:i], e.children[i+1:]...)
			child.parent = nil
			child.invalidateIDs()
			return
		}
	}
}

// Root walks to the top of the tree containing e (usually a Window element).
func (e *Element) Root() *Element {
	r := e
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// IsDescendantOf reports whether e is anc or lies beneath it.
func (e *Element) IsDescendantOf(anc *Element) bool {
	for cur := e; cur != nil; cur = cur.parent {
		if cur == anc {
			return true
		}
	}
	return false
}

// OnScreen reports whether the element is currently exposed in the
// accessibility tree: it and all its ancestors are visible and it is not
// still lazily loading.
func (e *Element) OnScreen() bool {
	if e.deferVisible > 0 {
		return false
	}
	for cur := e; cur != nil; cur = cur.parent {
		if !cur.visible {
			return false
		}
	}
	return true
}

// DeferVisibility hides the element from the next n snapshots, simulating a
// control that the application populates asynchronously (paper §3.4,
// "failure retry mechanism for GUI controls that may load slowly").
//
//dmi:testonly substrate API for slow-loading controls; uia, core and root tests use it
func (e *Element) DeferVisibility(n int) {
	e.setDefer(int32(max(0, min(n, math.MaxInt32))))
}

// setDefer stores the lazy-loading countdown, logging the old one.
func (e *Element) setDefer(n int32) {
	if e.log != nil && e.deferVisible != n {
		e.log.structural(e, undoEntry{op: undoDefer, el: e, n: e.deferVisible})
	}
	e.deferVisible = n
}

// SetPattern attaches a control-pattern provider. The provider must satisfy
// the behaviour interface corresponding to the pattern (Toggler for
// TogglePattern, Scroller for ScrollPattern, ...), but the framework stores
// it untyped so applications can attach marker-only patterns too.
// Setting a pattern again replaces its provider.
func (e *Element) SetPattern(id PatternID, provider any) {
	l := e.recorder()
	for i := range e.patterns {
		if e.patterns[i].id == id {
			if l != nil {
				l.push(undoEntry{op: undoPattern, el: e, at: i, prov: e.patterns[i].provider})
			}
			e.patterns[i].provider = provider
			return
		}
	}
	if l != nil {
		l.push(undoEntry{op: undoPatternAdd, el: e})
	}
	e.patterns = append(e.patterns, patternEntry{id, provider})
}

// Pattern returns the provider attached for id, or nil.
func (e *Element) Pattern(id PatternID) any {
	for i := range e.patterns {
		if e.patterns[i].id == id {
			return e.patterns[i].provider
		}
	}
	return nil
}

// HasPattern reports whether the pattern is supported.
func (e *Element) HasPattern(id PatternID) bool {
	for i := range e.patterns {
		if e.patterns[i].id == id {
			return true
		}
	}
	return false
}

// PatternIDs returns the identifiers of all supported patterns, in the
// order they were first set.
func (e *Element) PatternIDs() []PatternID {
	out := make([]PatternID, len(e.patterns))
	for i, p := range e.patterns {
		out[i] = p.id
	}
	return out
}

// OnClick registers a handler run when the element is clicked. Handlers run
// in registration order after pattern-default behaviour (toggle flip,
// selection) has been applied.
func (e *Element) OnClick(fn func(e *Element)) {
	e.onClick = append(e.onClick, fn)
}

// Walk visits e and every descendant in depth-first, document order. The
// visit function returns false to prune the subtree below the visited node.
func (e *Element) Walk(visit func(*Element) bool) {
	if !visit(e) {
		return
	}
	for _, c := range e.children {
		c.Walk(visit)
	}
}

// Find returns the first descendant (including e) for which match returns
// true, or nil.
func (e *Element) Find(match func(*Element) bool) *Element {
	var found *Element
	e.Walk(func(n *Element) bool {
		if found != nil {
			return false
		}
		if match(n) {
			found = n
			return false
		}
		return true
	})
	return found
}

// FindByName returns the first on-screen descendant with the given name, or
// nil.
func (e *Element) FindByName(name string) *Element {
	return e.Find(func(n *Element) bool {
		return n.name == name && n.OnScreen()
	})
}

// FindByAutomationID returns the first descendant with the given automation
// id, or nil.
func (e *Element) FindByAutomationID(id string) *Element {
	return e.Find(func(n *Element) bool { return n.automationID == id })
}

// Count returns the number of elements in the subtree rooted at e.
//
//dmi:testonly app, agent and uia tests size subtrees with it
func (e *Element) Count() int {
	n := 0
	e.Walk(func(*Element) bool { n++; return true })
	return n
}

// PrimaryID returns the leading component of the synthesized control ID:
// the automation id when present, otherwise the name, otherwise "[Unnamed]"
// (paper §4.1).
func (e *Element) PrimaryID() string {
	switch {
	case e.automationID != "":
		return e.automationID
	case e.name != "":
		return e.name
	default:
		return "[Unnamed]"
	}
}

// ControlID synthesizes the XPath-like identifier used to label the element
// as a UNG node (paper §4.1):
//
//	primary_id|control_type|ancestor_path
//
// where ancestor_path is the slash-delimited sequence of ancestor primary
// ids from the root down. Index-based addressing is deliberately avoided:
// dynamic menus shift indices unpredictably.
func (e *Element) ControlID() string {
	if e.idCache == "" {
		var anc string
		if e.parent != nil {
			anc = e.parent.path()
		}
		e.idCache = e.PrimaryID() + "|" + e.Type().String() + "|" + anc
	}
	return e.idCache
}

// path returns the slash-joined primary ids from the root down to e: the
// ancestor_path of e's children's control ids. Each element computes it
// once from its parent's, so naming a whole tree walks no chain twice.
func (e *Element) path() string {
	if e.pathCache == "" {
		if e.parent == nil {
			e.pathCache = e.PrimaryID()
		} else {
			e.pathCache = e.parent.path() + "/" + e.PrimaryID()
		}
	}
	return e.pathCache
}

// SplitControlID splits an identifier written by ControlID into its primary
// id, control type name, and raw "a/b/c" ancestor path. It allocates
// nothing, so matchers may call it once per candidate element. Separators
// past the second stay in the ancestor path; missing ones leave the
// trailing parts empty.
func SplitControlID(id string) (primary, ctype, ancPath string) {
	primary, rest, ok := strings.Cut(id, "|")
	if !ok {
		return primary, "", ""
	}
	ctype, ancPath, _ = strings.Cut(rest, "|")
	return primary, ctype, ancPath
}

func (e *Element) invalidateIDs() {
	e.Walk(func(n *Element) bool {
		n.idCache, n.pathCache = "", ""
		return true
	})
}

// String renders a short human-readable description for diagnostics.
func (e *Element) String() string {
	return fmt.Sprintf("%s(%s)", e.name, e.Type())
}
