package uia

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// Errors returned by interaction entry points.
var (
	ErrNotOnScreen  = errors.New("uia: element is not on screen")
	ErrDisabled     = errors.New("uia: element is disabled")
	ErrNoPattern    = errors.New("uia: element does not support the required pattern")
	ErrNoHit        = errors.New("uia: no element at coordinates")
	ErrNoFocus      = errors.New("uia: no element has keyboard focus")
	ErrUnknownKey   = errors.New("uia: unknown key combination")
	ErrWindowClosed = errors.New("uia: window is no longer open")
)

// Clock is the simulated wall clock shared by the desktop, the agents, and
// the benchmark harness. UI actions advance it by realistic small amounts;
// the LLM-latency model advances it by tens of seconds per call.
type Clock struct {
	now time.Duration
}

// Now returns the elapsed simulated time.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d (negative values are ignored).
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now += d
	}
}

// Simulated costs of primitive UI operations.
const (
	CostSnapshot = 150 * time.Millisecond
	CostClick    = 80 * time.Millisecond
	CostDragStep = 250 * time.Millisecond
	CostKeyComb  = 60 * time.Millisecond
	CostPerChar  = 15 * time.Millisecond
)

// Desktop owns the top-level window stack of one simulated machine, the
// keyboard focus and the simulated clock.
type Desktop struct {
	clock   Clock
	windows []*Element // bottom ... top (top = active)
	focus   *Element

	// KeyHandlers maps key combinations ("ENTER", "ESC", "CTRL+S", ...)
	// to application-level behaviour. Applications register these.
	keyHandlers map[string]func(d *Desktop) error

	snapshots int // number of accessibility snapshots taken (drives lazy loading)
}

// NewDesktop creates an empty desktop.
func NewDesktop() *Desktop {
	return &Desktop{keyHandlers: make(map[string]func(*Desktop) error)}
}

// Clock returns the desktop's simulated clock.
func (d *Desktop) Clock() *Clock { return &d.clock }

// Windows returns the current top-level windows, bottom to top. Callers must
// not mutate the slice.
func (d *Desktop) Windows() []*Element { return d.windows }

// TopWindow returns the topmost (active) visible window, or nil.
func (d *Desktop) TopWindow() *Element {
	for i := len(d.windows) - 1; i >= 0; i-- {
		if d.windows[i].Visible() {
			return d.windows[i]
		}
	}
	return nil
}

// OpenWindow pushes w onto the window stack. The element should have
// WindowControl type (or PaneControl for popups).
func (d *Desktop) OpenWindow(w *Element) { d.windows = append(d.windows, w) }

// CloseWindow removes w from the stack. Keyboard focus is dropped if it
// lived inside w.
func (d *Desktop) CloseWindow(w *Element) {
	for i, win := range d.windows {
		if win == w {
			d.windows = append(d.windows[:i], d.windows[i+1:]...)
			if d.focus != nil && d.focus.IsDescendantOf(w) {
				d.focus = nil
			}
			return
		}
	}
}

// IsOpen reports whether w is currently on the window stack.
func (d *Desktop) IsOpen(w *Element) bool {
	for _, win := range d.windows {
		if win == w {
			return true
		}
	}
	return false
}

// Focus returns the element with keyboard focus, or nil.
func (d *Desktop) Focus() *Element { return d.focus }

// SetFocus moves keyboard focus. Passing nil clears focus.
func (d *Desktop) SetFocus(e *Element) { d.focus = e }

// RegisterKey installs application behaviour for a key combination. Key
// names are upper-cased internally.
func (d *Desktop) RegisterKey(combo string, fn func(*Desktop) error) {
	d.keyHandlers[normalizeKey(combo)] = fn
}

// Snapshot captures the accessibility tree of every visible window, in
// stacking order, advancing lazy-loading counters: an element whose
// visibility was deferred becomes visible only after enough snapshots have
// observed its window. It appends every on-screen element to buf[:0] and
// returns the result, so a caller that passes its previous result back in
// reuses the storage; pass nil for a fresh slice.
func (d *Desktop) Snapshot(buf []*Element) []*Element {
	d.clock.Advance(CostSnapshot)
	d.snapshots++
	out := buf[:0]
	for _, w := range d.windows {
		if w.Visible() {
			out = observe(w, out)
		}
	}
	return out
}

// Capture is a snapshot held as the observations of its visible windows,
// in stacking order, so that a later capture can share the observation of
// a window that has not changed instead of walking it again. Listed window
// after window, the observations' elements are what Snapshot lists.
type Capture struct {
	Windows []*Observation
}

// Observation is what one capture saw of one visible window: the root and
// its on-screen descendants in document order, with their control ids. It
// is immutable once taken, so any number of captures may hold it; only the
// id index behind Index is built later, on the first lookup.
type Observation struct {
	Root *Element
	Els  []*Element // on-screen elements, Root included unless it is still loading
	IDs  []string   // Els' control ids

	// gen is Root's structural generation before the walk, and shareable
	// whether a later capture may share the observation: Root has a
	// generation and the walk counted no deferral down.
	gen       windowGen
	shareable bool
	holders   int // captures holding the observation

	index map[string]int32 // empty until the first lookup
}

// Index returns the position in Els of the first element with the given
// id, or -1. The index behind it is built on the first call and lives as
// long as the observation.
func (o *Observation) Index(id string) int {
	if len(o.index) == 0 && len(o.IDs) > 0 {
		if o.index == nil {
			o.index = make(map[string]int32, len(o.IDs))
		}
		for i := len(o.IDs) - 1; i >= 0; i-- { // the first occurrence wins
			o.index[o.IDs[i]] = int32(i)
		}
	}
	if i, ok := o.index[id]; ok {
		return int(i)
	}
	return -1
}

// Window returns c's observation of the window with root w, or nil if c
// is nil or has none.
func (c *Capture) Window(w *Element) *Observation {
	if c == nil {
		return nil
	}
	for _, o := range c.Windows {
		if o.Root == w {
			return o
		}
	}
	return nil
}

// ObservationPool keeps the storage of observations that no capture holds
// any more, for the walks of later captures. Its zero value is ready to
// use; a nil pool keeps nothing. Like the captures that draw on it, it
// belongs to one goroutine at a time.
type ObservationPool struct {
	free []*Observation
}

// release drops c's hold on each of its observations and hands the ones
// no capture holds any more to p.
func (p *ObservationPool) release(c *Capture) {
	for _, o := range c.Windows {
		if o.holders--; o.holders == 0 && p != nil {
			p.free = append(p.free, o)
		}
	}
	clear(c.Windows)
	c.Windows = c.Windows[:0]
}

// get returns an empty observation, recycled from p if it has one.
func (p *ObservationPool) get() *Observation {
	if p == nil || len(p.free) == 0 {
		return new(Observation)
	}
	o := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	o.Els, o.IDs = o.Els[:0], o.IDs[:0]
	clear(o.index)
	return o
}

// Capture takes a snapshot into c, as Snapshot does: it is counted,
// advances the clock, and observes exactly the elements Snapshot would, in
// the same order. It first drops c's hold on the observations it held
// before, and the storage of those no other capture holds goes to pool,
// which the capture's own walks draw on.
//
// A window whose observation in prev carries the window's current
// structural generation is not walked: c shares prev's observation. That
// observation is what a walk would list, and a walk would count down no
// deferral: a walk that counts one down changes the generation, and its
// observation is never shared. Only windows of a tree with an undo log
// have a generation; the rest are always walked. prev may be nil, or
// another capture of this desktop drawing on the same pool.
func (d *Desktop) Capture(c, prev *Capture, pool *ObservationPool) {
	pool.release(c)
	d.clock.Advance(CostSnapshot)
	d.snapshots++
	for _, w := range d.windows {
		if !w.Visible() {
			continue
		}
		g, tracked := w.generation()
		if o := prev.Window(w); tracked && o != nil && o.shareable && o.gen == g {
			o.holders++
			c.Windows = append(c.Windows, o)
			continue
		}
		o := pool.get()
		o.Root, o.gen, o.holders = w, g, 1
		o.Els = observe(w, o.Els)
		o.IDs = slices.Grow(o.IDs, len(o.Els))
		for _, e := range o.Els {
			o.IDs = append(o.IDs, e.ControlID())
		}
		after, _ := w.generation()
		o.shareable = tracked && after == g
		c.Windows = append(c.Windows, o)
	}
}

// SnapshotWindow captures the on-screen elements of a single window.
func (d *Desktop) SnapshotWindow(w *Element) []*Element {
	d.clock.Advance(CostSnapshot)
	d.snapshots++
	if !w.Visible() || !d.IsOpen(w) {
		return nil
	}
	return observe(w, nil)
}

// observe appends e and its on-screen descendants to out in depth-first
// document order. An element still lazily loading is hidden, children too,
// and the observation counts down its deferral.
func observe(e *Element, out []*Element) []*Element {
	if e.deferVisible > 0 {
		e.setDefer(e.deferVisible - 1)
		return out
	}
	if !e.visible {
		return out
	}
	out = append(out, e)
	for _, c := range e.children {
		out = observe(c, out)
	}
	return out
}

// SnapshotCount reports how many snapshots have been taken, a proxy for the
// accessibility-API load of an exploration or an agent run.
//
//dmi:testonly uia tests and agent's reset property read the snapshot count
func (d *Desktop) SnapshotCount() int { return d.snapshots }

// Click dispatches a primitive click on e: default pattern behaviour first
// (toggle flip, selection-item select), then the registered click handlers.
// This is the single edge type modeled by the UNG (paper §3.2: edges denote
// "click" interaction).
func (d *Desktop) Click(e *Element) error {
	if e == nil {
		return ErrNoHit
	}
	if !e.OnScreen() {
		return fmt.Errorf("%w: %s", ErrNotOnScreen, e)
	}
	if !e.Enabled() {
		return fmt.Errorf("%w: %s", ErrDisabled, e)
	}
	d.clock.Advance(CostClick)

	if t, ok := e.Pattern(TogglePattern).(Toggler); ok {
		next := ToggleOn
		if t.ToggleState(e) == ToggleOn {
			next = ToggleOff
		}
		if err := t.SetToggleState(e, next); err != nil {
			return err
		}
	}
	if si, ok := e.Pattern(SelectionItemPattern).(SelectionItem); ok {
		if err := si.Select(e); err != nil {
			return err
		}
	}
	if inv, ok := e.Pattern(InvokePattern).(Invoker); ok {
		if err := inv.Invoke(e); err != nil {
			return err
		}
	}
	for _, fn := range e.onClick {
		fn(e)
	}
	if e.Type() == EditControl || e.HasPattern(ValuePattern) || e.HasPattern(TextPattern) {
		d.focus = e
	}
	return nil
}

// HitTest returns the on-screen element containing (x, y) in the highest
// window on the stack that has one: a later window covers every earlier
// one, however deep the earlier one's hit. Within that window it is the
// deepest such element, favouring interactive controls.
func (d *Desktop) HitTest(x, y int) *Element {
	for i := len(d.windows) - 1; i >= 0; i-- {
		w := d.windows[i]
		if !w.Visible() {
			continue
		}
		var best *Element
		bestDepth := -1
		var walk func(e *Element, depth int)
		walk = func(e *Element, depth int) {
			if !e.Visible() || e.deferVisible > 0 {
				return
			}
			if e.Rect().Contains(x, y) && depth >= bestDepth {
				if e.Type().IsInteractive() || best == nil {
					best = e
					bestDepth = depth
				}
			}
			for _, c := range e.Children() {
				walk(c, depth+1)
			}
		}
		walk(w, 0)
		if best != nil {
			return best
		}
	}
	return nil
}

// TypeText sends text to the focused element through its Value pattern.
func (d *Desktop) TypeText(text string) error {
	if d.focus == nil {
		return ErrNoFocus
	}
	d.clock.Advance(time.Duration(len(text)) * CostPerChar)
	v, ok := d.focus.Pattern(ValuePattern).(Valuer)
	if !ok {
		return fmt.Errorf("%w: %s lacks Value", ErrNoPattern, d.focus)
	}
	if v.IsReadOnly(d.focus) {
		return fmt.Errorf("uia: %s is read-only", d.focus)
	}
	return v.SetValue(d.focus, text)
}

// PressKey dispatches a key combination ("ENTER", "ESC", "CTRL+B", ...). The
// application's registered handler runs; unregistered combinations are an
// error so that agents receive feedback rather than silent no-ops.
func (d *Desktop) PressKey(combo string) error {
	d.clock.Advance(CostKeyComb)
	fn, ok := d.keyHandlers[normalizeKey(combo)]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownKey, combo)
	}
	return fn(d)
}

// Drag simulates a press-move-release gesture from (x0,y0) to (x1,y1). If
// the press lands on a scrollbar or an element inside one, the scrollbar's
// position moves by the drag's share of its length along its longer side;
// otherwise the drag is a no-op that still costs time — exactly the fragile
// composite interaction the paper's Task 2 illustrates.
func (d *Desktop) Drag(x0, y0, x1, y1 int) error {
	d.clock.Advance(CostDragStep)
	src := d.HitTest(x0, y0)
	if src == nil {
		return fmt.Errorf("%w: (%d,%d)", ErrNoHit, x0, y0)
	}
	// Find the nearest ancestor (or self) with a Scroll pattern.
	var sb *Element
	for cur := src; cur != nil; cur = cur.Parent() {
		if cur.HasPattern(ScrollPattern) {
			sb = cur
			break
		}
	}
	if sb == nil {
		return nil // dropped on nothing scrollable; gesture wasted
	}
	sc := sb.Pattern(ScrollPattern).(Scroller)
	r := sb.Rect()
	h, v := sc.ScrollPercent(sb)
	if r.H >= r.W { // vertical scrollbar
		if r.H > 0 {
			dv := float64(y1-y0) / float64(r.H) * 100
			v = clampPercent(v + dv)
		}
	} else if r.W > 0 {
		dh := float64(x1-x0) / float64(r.W) * 100
		h = clampPercent(h + dh)
	}
	return sc.SetScrollPercent(sb, h, v)
}

func clampPercent(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 100 {
		return 100
	}
	return p
}

func normalizeKey(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' {
			continue
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		out = append(out, c)
	}
	return string(out)
}
