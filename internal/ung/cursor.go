package ung

import (
	"time"

	"repro/internal/appkit"
	"repro/internal/uia"
)

// Cursor expands frames on one application instance by backtracking. It
// keeps a stack of checkpoints along the click path it last stood on, and
// expands a frame from the deepest checkpoint on the frame's own path:
// rewind there, replay only the steps past it, click, capture once, and
// difference against the checkpoint's capture.
//
// A rewind puts back everything a from-scratch expansion would have
// re-established — the instance's undo log restores every element and
// provider mutation and every piece of application state SoftReset
// normalizes, and the desktop's clock, snapshot count, focus and window
// stack come back from the checkpoint's DeskState — so an expansion is the
// same pure function of (application, context, frame) that a soft reset
// plus a full replay computed, whatever the cursor expanded before
// (DESIGN.md §3.1). Its Clicks, Snapshots and Elapsed are still the
// from-scratch costs: a real GUI cannot be rewound.
//
// A cursor owns its instance: it attaches an undo log to it and records
// from then on. Like the instance, it belongs to one goroutine at a time.
type Cursor struct {
	app  *appkit.App
	log  *uia.UndoLog
	base uia.DeskState // the desktop when the cursor was made
	ctx  string

	// path lists the steps between checkpoints: path[i] is the control
	// clicked from cps[i] to reach cps[i+1]. cps[:len(path)+1] are valid
	// once a context is entered; entries past them keep their storage.
	path    []string
	cps     []checkpoint
	entered bool

	added map[string]struct{}   // fresh ids recorded so far
	fresh map[*uia.Element]bool // controls revealed by the activation
}

// checkpoint is the instance's state after replaying a click path's first
// steps and taking the capture that follows them.
type checkpoint struct {
	mark  int           // the undo log's position
	desk  uia.DeskState // clock, snapshot count, focus, window stack
	now   time.Duration // the clock, as desk holds it
	since time.Duration // simulated time since the context's restore began

	// els is the capture's controls in snapshot order, window roots
	// excluded, and ids their ids. index maps each id to its first
	// position; it is built on first use, since most captures are never
	// looked up by id past the lockstep difference.
	els     []*uia.Element
	ids     []string
	index   map[string]int32
	indexed bool
}

// NewCursor returns a cursor on app, which it attaches an undo log to.
func NewCursor(app *appkit.App) *Cursor {
	log := uia.NewUndoLog()
	log.Attach(app.Win)
	log.Attach(app.AllPopupWindows()...)
	log.SetRecording(true)
	return &Cursor{
		app:   app,
		log:   log,
		base:  app.Desk.SaveState(),
		added: make(map[string]struct{}),
		fresh: make(map[*uia.Element]bool),
	}
}

// App returns the instance the cursor drives.
func (c *Cursor) App() *appkit.App { return c.app }

// Close returns the instance's UI to the state the cursor found it in and
// stops recording. The cursor must not be used afterwards.
func (c *Cursor) Close() {
	c.log.Rewind()
	c.app.Desk.RestoreState(c.base)
}

// enter makes checkpoint 0 the base screen of ctx: the instance returns to
// the state the cursor found it in, soft-resets, enters ctx and is
// captured.
func (c *Cursor) enter(ctx string) {
	c.log.RewindTo(0)
	c.app.Desk.RestoreState(c.base)
	t0 := c.app.Desk.Clock().Now()
	c.app.SoftReset()
	if ctx != "" {
		_ = c.app.EnterContext(ctx)
	}
	c.ctx, c.entered = ctx, true
	c.path = c.path[:0]
	c.capture(0, t0)
}

// capture takes one full desktop snapshot into checkpoint i's storage and
// makes it the instance's current state; t0 is when the context's restore
// began. Every capture walks the whole desktop, even when the caller needs a
// single control: the walk advances the simulated clock and the
// lazy-loading counters, which the ripper's results depend on.
func (c *Cursor) capture(i int, t0 time.Duration) *checkpoint {
	for len(c.cps) <= i {
		c.cps = append(c.cps, checkpoint{})
	}
	cp := &c.cps[i]
	snap := c.app.Desk.Snapshot(cp.els)
	cp.els, cp.ids, cp.indexed = snap[:0], cp.ids[:0], false
	for _, e := range snap {
		if e.Parent() != nil { // window roots are containers, not controls
			cp.els = append(cp.els, e)
			cp.ids = append(cp.ids, e.ControlID())
		}
	}
	clear(snap[len(cp.els):])
	cp.mark = c.log.Mark()
	cp.desk = c.app.Desk.SaveState()
	cp.now = c.app.Desk.Clock().Now()
	cp.since = cp.now - t0
	return cp
}

// rewind returns the instance to checkpoint i and drops the later ones.
func (c *Cursor) rewind(i int) *checkpoint {
	cp := &c.cps[i]
	c.log.RewindTo(cp.mark)
	c.app.Desk.RestoreState(cp.desk)
	c.path = c.path[:i]
	return cp
}

// find returns the first control in the capture with the given id, or nil.
func (cp *checkpoint) find(id string) *uia.Element {
	if cp.indexed {
		if i, ok := cp.index[id]; ok {
			return cp.els[i]
		}
		return nil
	}
	for i, x := range cp.ids {
		if x == id {
			return cp.els[i]
		}
	}
	return nil
}

// has reports whether the capture lists id, building the index on first use.
func (cp *checkpoint) has(id string) bool {
	if !cp.indexed {
		if cp.index == nil {
			cp.index = make(map[string]int32, len(cp.ids))
		}
		clear(cp.index)
		for i := len(cp.ids) - 1; i >= 0; i-- { // the first occurrence wins
			cp.index[cp.ids[i]] = int32(i)
		}
		cp.indexed = true
	}
	_, ok := cp.index[id]
	return ok
}

// activatable reports whether a looked-up control can be clicked.
func activatable(el *uia.Element) bool {
	return el != nil && el.OnScreen() && el.Enabled()
}

// Expand activates the frame's control in context ctx and differences the
// captures before and after the click (paper §4.1).
//
// A depth-k frame is charged what a from-scratch expansion costs — one
// SoftReset, k+1 clicks and k+2 full snapshots, with Elapsed the simulated
// time they take — though the cursor clicks and captures only past the
// deepest checkpoint the frame's path shares with the cursor's. The
// capture after the activation becomes the checkpoint for the frame's
// children, which the DFS expands next.
func (c *Cursor) Expand(ctx string, f Frame) Expansion {
	if !c.entered || ctx != c.ctx {
		c.enter(ctx)
	}
	k := len(f.Path)
	l := 0
	for l < len(c.path) && l < k && c.path[l] == f.Path[l] {
		l++
	}
	cp := c.rewind(l)
	t0 := cp.now - cp.since
	// cost is the from-scratch cost of an expansion that made the given
	// number of successful clicks: each followed by a capture, and one
	// capture before the first.
	cost := func(o ExpandOutcome, clicks int) Expansion {
		return Expansion{Outcome: o, Clicks: clicks, Snapshots: clicks + 1,
			Elapsed: c.app.Desk.Clock().Now() - t0}
	}
	for i := l; i < k; i++ {
		el := cp.find(f.Path[i])
		if !activatable(el) || c.app.Desk.Click(el) != nil {
			return cost(ExpandSkipped, i)
		}
		c.path = append(c.path, f.Path[i])
		cp = c.capture(i+1, t0)
	}

	el := cp.find(f.ID)
	if !activatable(el) {
		return cost(ExpandSkipped, k)
	}
	if c.app.Blocked(el) {
		return cost(ExpandBlocked, k)
	}
	if err := c.app.Desk.Click(el); err != nil {
		return cost(ExpandSkipped, k)
	}
	// The after-capture is checkpoint k+1, on the path to the frame's
	// children. Taking it may grow c.cps, so checkpoint k is looked up again.
	c.path = append(c.path, f.ID)
	after := c.capture(k+1, t0)
	cp = &c.cps[k]
	exp := cost(ExpandOK, k+1)
	exp.Reveals = c.diff(cp, after, f.ID)
	return exp
}

// diff returns the controls the after-capture reveals over the
// before-capture, in snapshot order.
//
// A control is fresh when the before-capture lacked its id; the clicked
// control never is. Recording each fresh id in added keeps only the first
// occurrence of a duplicate. Most of the after-capture repeats the
// before-capture in order, so each id is first compared with the next
// unmatched before id, and looked up in the index only when that fails.
//
// Newly revealed controls attach beneath their nearest newly-revealed UI
// ancestor; top-level reveals attach to the clicked control. This
// preserves structure inside popups (a shared flyout stays one subtree)
// while edges still denote click-induced reachability. A snapshot lists
// ancestors before descendants, so e's fresh ancestors are marked by the
// time e is reached.
func (c *Cursor) diff(before, after *checkpoint, clicked string) []Reveal {
	defer func() {
		clear(c.added)
		clear(c.fresh)
	}()
	var reveals []Reveal
	matched := 0 // before ids matched in lockstep so far
	for i, e := range after.els {
		id := after.ids[i]
		if matched < len(before.ids) && id == before.ids[matched] {
			matched++
			continue
		}
		if before.has(id) {
			continue
		}
		if _, dup := c.added[id]; dup {
			continue
		}
		c.added[id] = struct{}{}
		c.fresh[e] = true
		parent := clicked
		if anc := nearestIn(e, c.fresh); anc != nil {
			parent = anc.ControlID()
		}
		reveals = append(reveals, captureReveal(e, parent))
	}
	return reveals
}
