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
// provider mutation and every Go-side field a handler writes, and the
// desktop's clock, snapshot count, focus and window stack come back from
// the checkpoint's DeskState — so an expansion is the same pure function
// of (application, context, frame) that a restore plus a full replay
// computes, whatever the cursor expanded before (DESIGN.md §3.1). Its
// Clicks, Snapshots and Elapsed are still the from-scratch costs: a real
// GUI cannot be rewound.
//
// A cursor owns its instance: it attaches an undo log to it and records
// from then on. Its base state is the instance as it found it, which every
// context starts from, so a cursor is made on a fresh instance. Like the
// instance, it belongs to one goroutine at a time.
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

	// free holds the storage of window observations no checkpoint holds
	// any more, for the next captures' walks.
	free uia.ObservationPool

	added   map[string]struct{}   // fresh ids recorded so far
	fresh   map[*uia.Element]bool // controls revealed by the activation
	reveals []revealed            // the differencing's buffer
}

// revealed is one control the differencing found, beside the reveal it
// makes.
type revealed struct {
	Reveal
	el *uia.Element
}

// checkpoint is the instance's state after replaying a click path's first
// steps and taking the capture that follows them.
type checkpoint struct {
	mark  int           // the undo log's position
	desk  uia.DeskState // clock, snapshot count, focus, window stack (own storage)
	now   time.Duration // the clock, as desk holds it
	since time.Duration // simulated time since the context's restore began

	// snap is the capture: one observation per visible window, each
	// shared with every other checkpoint whose capture saw the window
	// unchanged, and indexed by id once however many share it. Window
	// roots are in it but are containers, not controls; no frame names
	// one, and the differencing skips them.
	snap uia.Capture
}

// NewCursor returns a cursor on app, which it attaches an undo log to.
func NewCursor(app *appkit.App) *Cursor {
	log := uia.NewUndoLog()
	log.Attach(app.Win)
	log.Attach(app.AllPopupWindows()...)
	log.SetRecording(true)
	c := &Cursor{
		app:   app,
		log:   log,
		added: make(map[string]struct{}),
		fresh: make(map[*uia.Element]bool),
	}
	app.Desk.SaveState(&c.base)
	return c
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
// the state the cursor found it in, enters ctx and is captured.
func (c *Cursor) enter(ctx string) {
	c.log.RewindTo(0)
	c.app.Desk.RestoreState(c.base)
	t0 := c.app.Desk.Clock().Now()
	if ctx != "" {
		_ = c.app.EnterContext(ctx)
	}
	c.ctx, c.entered = ctx, true
	c.path = c.path[:0]
	c.capture(0, t0)
}

// capture takes one desktop capture into checkpoint i's storage and makes
// it the instance's current state; t0 is when the context's restore began.
// Every capture is a full snapshot of the desktop, even when the caller
// needs a single control: it is counted, advances the simulated clock,
// counts down every deferral a walk of the whole desktop would, and lists
// exactly the controls that walk would, which the ripper's results depend
// on. Capture i > 0 follows checkpoint i-1 and one click, so it treats
// checkpoint i-1 as its previous capture and walks only the windows whose
// structural generation changed since (uia.Desktop.Capture). The
// generations live in the instance's undo log, keyed by window root, and
// a rewind restores them with the mutations they count. The checkpoint's
// previous capture lets go of its observations; those no other checkpoint
// holds go to the cursor's free list for later walks.
func (c *Cursor) capture(i int, t0 time.Duration) *checkpoint {
	for len(c.cps) <= i {
		c.cps = append(c.cps, checkpoint{})
	}
	var prev *uia.Capture
	if i > 0 {
		prev = &c.cps[i-1].snap
	}
	var check func()
	if captureCheck != nil {
		check = captureCheck(c, i)
	}
	cp := &c.cps[i]
	c.app.Desk.Capture(&cp.snap, prev, &c.free)
	if check != nil {
		check()
	}
	cp.mark = c.log.Mark()
	c.app.Desk.SaveState(&cp.desk)
	cp.now = c.app.Desk.Clock().Now()
	cp.since = cp.now - t0
	return cp
}

// captureCheck, when a test sets it, is called with the cursor and the
// checkpoint before every capture the cursor takes, and the function it
// returns once the capture is taken.
var captureCheck func(c *Cursor, i int) func()

// rewind returns the instance to checkpoint i and drops the later ones.
func (c *Cursor) rewind(i int) *checkpoint {
	cp := &c.cps[i]
	c.log.RewindTo(cp.mark)
	c.app.Desk.RestoreState(cp.desk)
	c.path = c.path[:i]
	return cp
}

// find returns the first control in the capture with the given id, or
// nil: windows in stacking order, each looked up in its observation's
// index.
func (cp *checkpoint) find(id string) *uia.Element {
	for _, o := range cp.snap.Windows {
		if i := o.Index(id); i >= 0 {
			return o.Els[i]
		}
	}
	return nil
}

// activatable reports whether a looked-up control can be clicked.
func activatable(el *uia.Element) bool {
	return el != nil && el.OnScreen() && el.Enabled()
}

// Expand activates the frame's control in context ctx and differences the
// captures before and after the click (paper §4.1).
//
// A depth-k frame is charged what a from-scratch expansion costs — a
// restore, k+1 clicks and k+2 full snapshots, with Elapsed the simulated
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
// occurrence of a duplicate. The after-capture was taken with the
// before-capture as its previous one, so a window whose observation the
// two share holds only ids the before-capture has, and is skipped whole.
// A walked window mostly repeats the before-capture's observation of the
// same root in order, so each id is first compared with the next
// unmatched id there, then looked up in that observation's index (a hit
// resumes the lockstep past it), and in the whole before-capture only
// when both fail.
//
// Newly revealed controls attach beneath their nearest newly-revealed UI
// ancestor; top-level reveals attach to the clicked control. This
// preserves structure inside popups (a shared flyout stays one subtree)
// while edges still denote click-induced reachability. A snapshot lists
// ancestors before descendants, so e's fresh ancestors are marked by the
// time e is reached. The reveals collect in the cursor's buffer, and the
// caller gets a copy of its own.
//
// added and fresh hold exactly the ids and controls of the reveals, so they
// are emptied key by key: clear would cost their whole capacity, which the
// largest reveal so far has set.
func (c *Cursor) diff(before, after *checkpoint, clicked string) []Reveal {
	defer func() {
		for _, r := range c.reveals {
			delete(c.added, r.ID)
			delete(c.fresh, r.el)
		}
	}()
	c.reveals = c.reveals[:0]
	for _, o := range after.snap.Windows {
		b := before.snap.Window(o.Root)
		if b == o {
			continue
		}
		var bids []string
		if b != nil {
			bids = b.IDs
		}
		matched := 0 // b's ids matched in lockstep so far
		for i, id := range o.IDs {
			if matched < len(bids) && id == bids[matched] {
				matched++
				continue
			}
			if b != nil {
				if j := b.Index(id); j >= 0 { // not fresh: resume the lockstep past it
					matched = max(matched, j+1)
					continue
				}
			}
			e := o.Els[i]
			if e.Parent() == nil || before.find(id) != nil { // a window root, or not fresh
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
			c.reveals = append(c.reveals, revealed{captureReveal(e, parent), e})
		}
	}
	if len(c.reveals) == 0 {
		return nil
	}
	out := make([]Reveal, len(c.reveals))
	for i, r := range c.reveals {
		out[i] = r.Reveal
	}
	return out
}
