package ung

import (
	"slices"
	"sync"
	"time"

	"repro/internal/appkit"
	"repro/internal/uia"
)

// Config controls GUI ripping.
type Config struct {
	// MaxDepth caps the click-path length explored (default 10).
	MaxDepth int
	// MaxNodes aborts exploration when the graph grows beyond this size
	// (default 100000), a safety valve against modeling runaways.
	MaxNodes int
}

func (c *Config) fill() {
	if c.MaxDepth == 0 {
		c.MaxDepth = 10
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 100000
	}
}

// Normalized returns the config with the defaults filled in — the exact
// values a rip would use. Cache fingerprints build on it so a zero config
// and an explicit default share one slot.
func (c Config) Normalized() Config {
	c.fill()
	return c
}

// Stats reports the cost of the offline modeling phase (paper §5.2).
type Stats struct {
	Nodes     int
	Edges     int
	Explored  int // nodes actually clicked
	Skipped   int // nodes skipped (non-interactive, disabled, or missing on replay)
	Blocked   int // nodes on the access blocklist
	Clicks    int
	Snapshots int
	Contexts  int
	// Workers is the expander's width (1 for the sequential ripper): the
	// number of virtual workers SimulatedTime schedules expansions onto.
	Workers int
	// SimulatedTime is the wall-clock cost on the simulated desktop; the
	// paper reports < 3 hours of automated modeling per application. It is
	// the probe's seeding time plus the makespan of the applied expansions'
	// simulated costs, list-scheduled in application order onto Workers
	// virtual workers — the wall-clock analog when each worker drives its
	// own machine. For one worker that is the sequential clock; for any
	// width it depends only on the graph, never on real scheduling.
	SimulatedTime time.Duration
}

// Frame is one pending exploration: activate the control after replaying the
// click path that made it visible. Everything in it is a string, so a frame
// crosses process boundaries as-is — it is the job unit the Expander seam
// dispatches, and the body of the serving daemon's POST /v1/rip.
type Frame struct {
	ID   string
	Path []string
}

// ExpandOutcome classifies one frame activation.
type ExpandOutcome int

const (
	ExpandOK ExpandOutcome = iota
	ExpandSkipped
	ExpandBlocked
)

// Reveal is one control newly revealed by an activation, captured in full:
// the node metadata the graph needs plus the id of the node it attaches
// beneath (its nearest newly-revealed UI ancestor, or the clicked control
// for top-level reveals). A reveal carries no element pointer, so an
// expansion computed on another instance — or another machine — folds into
// the coordinator's graph exactly as a local one would.
type Reveal struct {
	ID        string
	Name      string
	Type      uia.ControlType
	Desc      string
	LargeEnum bool
	Parent    string
}

// Expansion is the result of activating one frame's control on an
// application instance: the newly revealed controls in snapshot order, plus
// the instance work the activation cost (for Stats accounting — the clicks
// and snapshots spent restoring, replaying, and differencing). Elapsed is
// the instance's simulated-clock cost, the per-machine wall-clock analog.
type Expansion struct {
	Outcome   ExpandOutcome
	Reveals   []Reveal
	Clicks    int
	Snapshots int
	Elapsed   time.Duration
}

// ExpandFrame re-establishes the frame's discovery state on the given
// application instance (soft reset + click-path replay), activates the
// control, and differences the before/after snapshots. It touches only the
// instance, never a shared graph, and its result is a pure function of
// (application, context, frame) — the property that makes expansions safe to
// run on a pool of throwaway instances, ship to a serving replica, or
// re-dispatch after a replica dies mid-rip. Exported for the dmi-serve
// daemon's POST /v1/rip executor.
func ExpandFrame(app *appkit.App, ctx string, f Frame) Expansion {
	s := scratchPool.Get().(*expandScratch)
	defer scratchPool.Put(s)
	return s.expandFrame(app, ctx, f)
}

// expandFrame is ExpandFrame on the given scratch.
func (s *expandScratch) expandFrame(app *appkit.App, ctx string, f Frame) Expansion {
	var st Stats
	t0 := app.Desk.Clock().Now()
	exp := s.expand(app, ctx, f, &st)
	exp.Clicks = st.Clicks
	exp.Snapshots = st.Snapshots
	exp.Elapsed = app.Desk.Clock().Now() - t0
	return exp
}

// expand runs one expansion on the scratch.
//
// A depth-k frame costs one SoftReset, k+1 clicks and k+2 full snapshots:
// one per replay step, one before and one after the activation. The
// snapshot buffer and the sets are reused across expansions; none of them
// escapes, because each reveal copies the element fields it needs
// (DESIGN.md §3.1).
func (s *expandScratch) expand(app *appkit.App, ctx string, f Frame, st *Stats) Expansion {
	defer s.reset()

	restore(app, ctx)
	if !replay(app, f.Path, st, s) {
		return Expansion{Outcome: ExpandSkipped}
	}
	s.snap = capture(app, st, s.snap)
	el := firstWithID(s.snap, f.ID)
	if el == nil || !el.OnScreen() || !el.Enabled() {
		return Expansion{Outcome: ExpandSkipped}
	}
	if app.Blocked(el) {
		return Expansion{Outcome: ExpandBlocked}
	}
	// Index the before-snapshot's ids now: the click may rename or move
	// controls, and a control whose id changes counts as revealed.
	s.index()
	if err := app.Desk.Click(el); err != nil {
		return Expansion{Outcome: ExpandSkipped}
	}
	st.Clicks++
	s.snap = capture(app, st, s.snap)

	// A control is fresh when the before-snapshot lacked its id; the clicked
	// control never is. Recording each fresh id in added keeps only the
	// first occurrence of a duplicate. Most of the after-snapshot repeats
	// the before-snapshot in order, so each id is first compared with the
	// next unmatched before id, and looked up in seen only when that fails.
	//
	// Newly revealed controls attach beneath their nearest newly-revealed
	// UI ancestor; top-level reveals attach to the clicked control. This
	// preserves structure inside popups (a shared flyout stays one subtree)
	// while edges still denote click-induced reachability. A snapshot lists
	// ancestors before descendants, so e's fresh ancestors are marked by the
	// time e is reached.
	var reveals []Reveal
	matched := 0 // before ids matched in lockstep so far
	for _, e := range s.snap {
		if e.Parent() == nil {
			continue
		}
		id := e.ControlID()
		if matched < len(s.ids) && id == s.ids[matched] {
			matched++
			continue
		}
		if _, present := s.seen[id]; present {
			continue
		}
		if _, dup := s.added[id]; dup {
			continue
		}
		s.added[id] = struct{}{}
		s.fresh[e] = true
		parent := f.ID
		if anc := nearestIn(e, s.fresh); anc != nil {
			parent = anc.ControlID()
		}
		reveals = append(reveals, captureReveal(e, parent))
	}
	return Expansion{Outcome: ExpandOK, Reveals: reveals}
}

// captureReveal snapshots the element fields a graph node is built from,
// including the ancestor walk behind LargeEnum, so a node created from the
// reveal here or on another instance is the node the element itself makes.
func captureReveal(e *uia.Element, parent string) Reveal {
	r := Reveal{
		ID:     e.ControlID(),
		Name:   e.Name(),
		Type:   e.Type(),
		Desc:   e.Description(),
		Parent: parent,
	}
	for cur := e; cur != nil; cur = cur.Parent() {
		if cur.LargeEnum() {
			r.LargeEnum = true
			break
		}
	}
	return r
}

// applyExpansion folds one expansion into the shared graph and its instance
// work into st, pushing frames for controls seen for the first time. Every
// expander — none, pooled, distributed — has its expansions applied in
// exactly the same order, which is what keeps all of them byte-identical.
func applyExpansion(g *Graph, cfg Config, ctx string, f Frame, exp Expansion, st *Stats, push func(node int32, path []string)) {
	st.Clicks += exp.Clicks
	st.Snapshots += exp.Snapshots
	switch exp.Outcome {
	case ExpandSkipped:
		st.Skipped++
		return
	case ExpandBlocked:
		st.Blocked++
		return
	}
	st.Explored++
	for _, r := range exp.Reveals {
		i, added := g.AddNode(r, ctx)
		g.AddEdge(g.lookup(r.Parent), i)
		if added && len(f.Path)+1 < cfg.MaxDepth {
			next := make([]string, len(f.Path)+1)
			copy(next, f.Path)
			next[len(f.Path)] = f.ID
			push(i, next)
		}
	}
}

// seedContext performs root-node initialization for one application context
// (paper §4.1): initial-screen controls attach beneath their visible UI
// ancestors, anchored at the virtual root; the active tab's content panel is
// re-anchored under the active TabItem so otherwise unscoped controls are
// indexable beneath it. Each control becomes a node through captureReveal
// and AddNode, exactly as an applied expansion's reveals do.
func seedContext(g *Graph, app *appkit.App, ctx string, st *Stats, push func(node int32, path []string)) {
	restore(app, ctx)
	snap := capture(app, st, nil)
	tabItem, tabPanel := app.ActiveTabInfo()
	var order []*uia.Element
	seen := make(map[string]bool)
	inSnap := make(map[*uia.Element]bool)
	for _, e := range snap {
		if e.Parent() == nil {
			continue // window roots are containers, not modeled controls
		}
		if id := e.ControlID(); !seen[id] { // first occurrence wins
			seen[id] = true
			inSnap[e] = true
			order = append(order, e)
		}
	}
	for _, e := range order {
		parent := RootID
		if e == tabPanel && tabItem != nil {
			parent = tabItem.ControlID()
		} else if anc := nearestIn(e, inSnap); anc != nil {
			parent = anc.ControlID()
		}
		r := captureReveal(e, parent)
		i, added := g.AddNode(r, ctx)
		g.AddEdge(g.lookup(r.Parent), i)
		if added {
			push(i, nil)
		}
	}
}

// ripContexts returns the exploration order: the base context first, then
// every registered context.
func ripContexts(app *appkit.App) []string {
	contexts := []string{""}
	for _, c := range app.Contexts() {
		contexts = append(contexts, c.Name)
	}
	return contexts
}

// Rip builds the UNG of an application by DFS differential capture (paper
// §4.1): capture the accessibility tree, activate a candidate control,
// capture again; newly revealed controls define navigation edges. New
// windows are detected by desktop window listeners, the access blocklist is
// honored, and every registered application context is explored and merged
// into one topology.
//
// Rip is RipDispatched with every expansion run on app itself; RipParallel
// distributes the same exploration over a pool of worker instances and
// produces a byte-identical graph.
func Rip(app *appkit.App, cfg Config) (*Graph, Stats, error) {
	return RipDispatched(app, cfg, nil)
}

// nearestIn walks up e's UI ancestors and returns the first one present in
// the set (window roots excluded), or nil.
func nearestIn(e *uia.Element, set map[*uia.Element]bool) *uia.Element {
	for cur := e.Parent(); cur != nil; cur = cur.Parent() {
		if cur.Parent() == nil {
			return nil // window root: not a modeled control
		}
		if set[cur] {
			return cur
		}
	}
	return nil
}

// capture takes one full desktop snapshot into buf's storage, counting it.
// Every capture walks the whole desktop, even when the caller needs a
// single control: the walk advances the simulated clock and the
// lazy-loading counters, which the ripper's results depend on.
func capture(app *appkit.App, st *Stats, buf []*uia.Element) []*uia.Element {
	st.Snapshots++
	return app.Desk.Snapshot(buf)
}

// firstWithID returns the first control in snap with the given id, or nil.
// The desktop's window roots are containers, not modeled controls, and
// never match. On duplicate synthesized ids the first occurrence wins.
func firstWithID(snap []*uia.Element, id string) *uia.Element {
	for _, e := range snap {
		if e.Parent() != nil && e.ControlID() == id {
			return e
		}
	}
	return nil
}

// expandScratch is one expansion's working set. It is pooled so
// consecutive expansions reuse the snapshot buffer and the sets' storage.
//
// seen is the set of the ids in ids, the before-snapshot id list it was
// last built from. Both outlive an expansion: the next expansion whose
// before-snapshot lists the same ids in the same order reuses the set as
// is, and any other rebuilds it. Siblings
// share a click path and depth-0 frames share the base screen, so most
// expansions reuse it. The set is a function of the id list alone, compared
// in full, so reuse never depends on which expansions ran before.
type expandScratch struct {
	snap  []*uia.Element
	ids   []string              // before-snapshot ids that seen indexes
	next  []string              // this expansion's before-snapshot ids
	seen  map[string]struct{}   // the ids in ids
	added map[string]struct{}   // fresh ids recorded so far
	fresh map[*uia.Element]bool // controls revealed by the activation
}

func newExpandScratch() *expandScratch {
	return &expandScratch{
		seen:  make(map[string]struct{}),
		added: make(map[string]struct{}),
		fresh: make(map[*uia.Element]bool),
	}
}

var scratchPool = sync.Pool{New: func() any { return newExpandScratch() }}

// index makes seen the id set of the before-snapshot in snap, window roots
// excluded, rebuilding it only when the id list differs from the one it was
// last built from.
func (s *expandScratch) index() {
	s.next = s.next[:0]
	for _, e := range s.snap {
		if e.Parent() != nil {
			s.next = append(s.next, e.ControlID())
		}
	}
	if slices.Equal(s.next, s.ids) {
		return
	}
	s.ids, s.next = s.next, s.ids
	clear(s.seen)
	for _, id := range s.ids {
		s.seen[id] = struct{}{}
	}
}

// reset empties one expansion's state, dropping its element references so a
// pooled scratch never keeps an application instance alive. The id index
// holds strings only and is kept for reuse.
func (s *expandScratch) reset() {
	clear(s.snap[:cap(s.snap)])
	s.snap = s.snap[:0]
	clear(s.added)
	clear(s.fresh)
}

func restore(app *appkit.App, ctx string) {
	app.SoftReset()
	if ctx != "" {
		_ = app.EnterContext(ctx)
	}
}

// replay re-executes the click path; it reports false if any step's control
// cannot be resolved in the current state.
func replay(app *appkit.App, path []string, st *Stats, s *expandScratch) bool {
	for _, id := range path {
		s.snap = capture(app, st, s.snap)
		el := firstWithID(s.snap, id)
		if el == nil || !el.OnScreen() || !el.Enabled() {
			return false
		}
		if err := app.Desk.Click(el); err != nil {
			return false
		}
		st.Clicks++
	}
	return true
}

// clickable reports whether the ripper should attempt to activate controls
// of this type. Containers and purely informational controls are modeled as
// nodes but never clicked; scroll machinery is excluded because dragging is
// not a click edge (paper §3.2 models click-induced reachability only).
func clickable(t uia.ControlType) bool {
	if !t.IsInteractive() {
		return false
	}
	switch t {
	case uia.WindowControl, uia.PaneControl, uia.GroupControl,
		uia.ListControl, uia.MenuControl, uia.MenuBarControl,
		uia.ToolBarControl, uia.TreeControl, uia.TabControl,
		uia.DataGridControl, uia.TableControl, uia.HeaderItemControl,
		uia.ScrollBarControl, uia.ThumbControl, uia.SliderControl,
		uia.SpinnerControl, uia.DocumentControl, uia.CalendarControl,
		uia.SemanticZoomControl, uia.AppBarControl:
		return false
	}
	return true
}
