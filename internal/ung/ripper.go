package ung

import (
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
	// Workers is the number of virtual workers SimulatedTime schedules
	// expansions onto: an expander's width, RipParallel's workers, 1 for
	// Rip. No real worker is behind it.
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
// dispatches, and the body of the serving daemon's POST /v1/rip. Frames
// pushed by one expansion share their Path, so no reader may write to it.
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
// expander — none or distributed — has its expansions applied in
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
	var next []string // the click path to the revealed controls
	for _, r := range exp.Reveals {
		i, added := g.AddNode(r, ctx)
		g.AddEdge(g.lookup(r.Parent), i)
		if added && len(f.Path)+1 < cfg.MaxDepth {
			// Every frame this expansion pushes shares one path, which
			// no reader of Frame.Path writes to.
			if next == nil {
				next = make([]string, len(f.Path)+1)
				copy(next, f.Path)
				next[len(f.Path)] = f.ID
			}
			push(i, next)
		}
	}
}

// seedContext performs root-node initialization for one application context
// (paper §4.1): initial-screen controls attach beneath their visible UI
// ancestors, anchored at the virtual root; the active tab's content panel is
// re-anchored under the active TabItem so otherwise unscoped controls are
// indexable beneath it. Each control becomes a node through captureReveal
// and AddNode, exactly as an applied expansion's reveals do. The capture is
// the cursor's checkpoint 0 for ctx, which the context's depth-0 frames
// expand from when the cursor expands them too.
func seedContext(g *Graph, cur *Cursor, ctx string, st *Stats, push func(node int32, path []string)) time.Duration {
	cur.enter(ctx)
	cp := &cur.cps[0]
	st.Snapshots++
	tabItem, tabPanel := cur.app.ActiveTabInfo()
	var order []*uia.Element
	seen := make(map[string]bool)
	inSnap := make(map[*uia.Element]bool)
	for _, o := range cp.snap.Windows {
		for i, e := range o.Els {
			if e.Parent() == nil { // window roots are containers, not controls
				continue
			}
			if id := o.IDs[i]; !seen[id] { // first occurrence wins
				seen[id] = true
				inSnap[e] = true
				order = append(order, e)
			}
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
	return cp.since
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
// capture again; newly revealed controls define navigation edges. A capture
// observes every visible window on the desktop's stack, so a new window
// shows up in the capture after the click that opened it. The access
// blocklist is honored, and every registered application context is
// explored and merged into one topology.
//
// The rip models app in the state it is passed, so pass a fresh instance,
// and hands its UI back in that state. Rip is RipDispatched with every
// expansion run on app itself.
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
