package core

import (
	"fmt"
	"strings"

	"repro/internal/forest"
	"repro/internal/uia"
)

// CommandResult reports the outcome of one executed visit command.
type CommandResult struct {
	Cmd    Command
	Target string // resolved control name
	Clicks int    // primitive UI actions spent
	Err    *StepError
}

// VisitResult is the structured feedback of one visit call.
type VisitResult struct {
	Executed []CommandResult
	// Filtered lists commands dropped by non-leaf filtering (§3.4): the
	// executor takes over navigation, so navigation-node targets and
	// their trailing shortcuts are removed rather than failed.
	Filtered []Command
	// QueryText carries the further_query expansion when requested.
	QueryText string
	// Err is the first execution error; commands after it did not run
	// (§3.4: unexpected intermediate outcomes would invalidate them).
	Err *StepError
}

// OK reports whether every retained command executed successfully.
func (r *VisitResult) OK() bool { return r.Err == nil }

// Visit executes a batch of declarative commands sequentially (paper §3.4).
// further_query commands are exclusive; navigation-node targets are
// filtered out; execution stops at the first failure with structured error
// feedback.
func (s *Session) Visit(cmds []Command) *VisitResult {
	res := &VisitResult{}

	// further_query is exclusive.
	hasQuery := false
	for _, c := range cmds {
		if c.Kind() == KindFurtherQuery {
			hasQuery = true
		}
	}
	if hasQuery {
		if len(cmds) != 1 {
			res.Err = stepErr(ErrMixedQuery, -1, "", "",
				"further_query cannot be mixed with other commands in one call")
			return res
		}
		text, err := s.furtherQuery(cmds[0].FurtherQuery)
		if err != nil {
			res.Err = err
			return res
		}
		res.QueryText = text
		return res
	}

	retained := s.filterNonLeaf(cmds, res)

	for _, c := range retained {
		cr := s.execute(c)
		res.Executed = append(res.Executed, cr)
		if cr.Err != nil {
			res.Err = cr.Err
			return res
		}
	}
	return res
}

// furtherQuery renders the requested expansions: -1 yields the complete
// forest; otherwise each node's full substructure (§3.3 query on demand).
func (s *Session) furtherQuery(ids []int) (string, *StepError) {
	if len(ids) == 1 && ids[0] == -1 {
		return s.FullTopology(), nil
	}
	var b strings.Builder
	for _, id := range ids {
		text, err := s.Model.SerializeSubtree(id)
		if err != nil {
			return "", stepErr(ErrUnknownID, id, "", "",
				"further_query target does not exist in the topology")
		}
		b.WriteString(text)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// filterNonLeaf drops commands that target navigation (non-leaf) nodes,
// along with any shortcut commands that immediately follow them (§3.4):
// functional nodes are topology leaves; DMI owns the navigation process.
func (s *Session) filterNonLeaf(cmds []Command, res *VisitResult) []Command {
	if s.Opt.DisableLeafFilter {
		return cmds
	}
	var retained []Command
	dropping := false
	for _, c := range cmds {
		switch c.Kind() {
		case KindAccess, KindInput:
			n := s.Model.Node(*c.ID)
			if n != nil && !n.IsLeaf() {
				res.Filtered = append(res.Filtered, c)
				dropping = true
				continue
			}
			dropping = false
			retained = append(retained, c)
		case KindShortcut:
			if dropping {
				res.Filtered = append(res.Filtered, c)
				continue
			}
			retained = append(retained, c)
		default:
			dropping = false
			retained = append(retained, c)
		}
	}
	return retained
}

// execute runs a single retained command.
func (s *Session) execute(c Command) CommandResult {
	cr := CommandResult{Cmd: c}
	switch c.Kind() {
	case KindShortcut:
		s.Actions++
		if err := s.App.Desk.PressKey(c.ShortcutKey); err != nil {
			// Shortcuts are never retried: repeating them can have side
			// effects (§3.4).
			cr.Err = stepErr(ErrShortcutFailed, -1, c.ShortcutKey, "", err.Error())
		}
		return cr
	case KindAccess, KindInput:
		target := s.Model.Node(*c.ID)
		if target == nil {
			cr.Err = stepErr(ErrUnknownID, *c.ID, "", "",
				"no control with this id; use further_query to expand the topology")
			return cr
		}
		cr.Target = target.Name
		steps, serr := s.resolvePath(target, c.EntryRefIDs)
		if serr != nil {
			cr.Err = serr
			return cr
		}
		el, clicks, serr := s.navigate(steps, *c.ID)
		cr.Clicks += clicks
		if serr != nil {
			cr.Err = serr
			return cr
		}
		if c.Kind() == KindInput {
			s.App.Desk.SetFocus(el)
			s.Actions++
			if err := s.App.Desk.TypeText(c.Text); err != nil {
				cr.Err = stepErr(ErrInputFailed, *c.ID, target.Name, "", err.Error())
				return cr
			}
		}
		return cr
	default:
		cr.Err = stepErr(ErrInvalidCommand, -1, "", "", "unrecognized command shape")
		return cr
	}
}

// resolvePath maps a target node (plus entry references for shared-subtree
// targets) to the unique root-to-target chain of topology steps. The
// virtual root and each subtree root are skipped: the former is not a
// control, the latter is covered by its reference node.
func (s *Session) resolvePath(target *forest.Node, entryRefs []int) ([]*forest.Node, *StepError) {
	targetTree := s.Model.TreeOf(target)

	var steps []*forest.Node
	expectedTree := ""
	for _, refID := range entryRefs {
		ref := s.Model.Node(refID)
		if ref == nil || !ref.IsRef() {
			return nil, stepErr(ErrBadEntryRef, refID, "", "",
				"entry_ref_id must name a reference node")
		}
		if s.Model.TreeOf(ref) != expectedTree {
			return nil, stepErr(ErrBadEntryRef, refID, ref.Name, "",
				"entry references must chain from the main tree toward the target")
		}
		steps = append(steps, ref.PathFromRoot()[1:]...)
		expectedTree = ref.RefTarget
	}
	if expectedTree != targetTree {
		if targetTree == "" {
			return nil, stepErr(ErrBadEntryRef, s.Model.ID(target), target.Name, "",
				"target is in the main tree; no entry references apply")
		}
		hint := "target lies in a shared subtree; pass entry_ref_id"
		if refs := s.Model.RefsTo(targetTree); len(refs) > 0 {
			ids := make([]string, 0, len(refs))
			for _, r := range refs {
				ids = append(ids, fmt.Sprint(s.Model.ID(r)))
			}
			hint += " (one of: " + strings.Join(ids, ", ") + ")"
		}
		return nil, stepErr(ErrNeedsEntryRef, s.Model.ID(target), target.Name, "", hint)
	}
	steps = append(steps, target.PathFromRoot()[1:]...)
	if len(steps) == 0 {
		return nil, stepErr(ErrUnknownID, s.Model.ID(target), target.Name, "",
			"cannot navigate to the topology root")
	}
	return steps, nil
}

// navigate re-establishes the target on screen and clicks it (§4.3). Each
// round it fetches the topmost window, matches the step chain from the end
// backward against the visible hierarchy, and proceeds forward from the
// deepest visible step; windows containing no remaining step are closed
// with priority OK > Close > Cancel. Missing controls are retried to absorb
// slow loading; name drift is absorbed by the fuzzy matcher.
func (s *Session) navigate(steps []*forest.Node, nodeID int) (*uia.Element, int, *StepError) {
	clicks := 0
	closes := 0
	retries := s.Opt.Retries
	if s.Opt.DisableRetry {
		retries = 0
	}
	lastProgress := -1

	limit := len(steps) + maxWindowCloses + retries + 8
	for iter := 0; iter < limit; iter++ {
		win := s.App.Desk.TopWindow()
		if win == nil {
			return nil, clicks, stepErr(ErrNotFound, nodeID, "", "no-window",
				"no window is open")
		}
		snap := s.App.Desk.SnapshotWindow(win)

		// Backward match: deepest step visible in the top window.
		idx, el := s.deepestVisible(steps, snap)
		if idx < 0 {
			if s.isMainWindow(win) {
				if retries > 0 {
					retries--
					continue // slow load: re-observe
				}
				last := steps[len(steps)-1]
				return nil, clicks, stepErr(ErrNotFound, nodeID, last.Name, "offscreen",
					"no step of the navigation path is visible; the control may require an application context")
			}
			if closes >= maxWindowCloses {
				return nil, clicks, stepErr(ErrNotFound, nodeID, win.Name(), "blocked",
					"window close limit reached while searching for the target")
			}
			clicks += s.closeTopWindow(win, snap)
			closes++
			continue
		}

		if !el.Enabled() {
			return nil, clicks, stepErr(ErrDisabled, nodeID, steps[idx].Name, "disabled",
				"control located but disabled in the current state")
		}

		if idx == len(steps)-1 {
			s.Actions++
			if err := s.App.Desk.Click(el); err != nil {
				return nil, clicks, stepErr(ErrNotFound, nodeID, steps[idx].Name,
					"click-failed", err.Error())
			}
			clicks++
			return el, clicks, nil
		}

		// Progress guard: re-clicking the same intermediate step burns a
		// retry (covers toggling navigators and slowly-loading content).
		if idx <= lastProgress {
			if retries <= 0 {
				return nil, clicks, stepErr(ErrNotFound, nodeID, steps[idx+1].Name,
					"offscreen", "navigation stalled: the next step never appeared")
			}
			retries--
			continue
		}
		lastProgress = idx
		s.Actions++
		if err := s.App.Desk.Click(el); err != nil {
			return nil, clicks, stepErr(ErrNotFound, nodeID, steps[idx].Name,
				"click-failed", err.Error())
		}
		clicks++
	}
	return nil, clicks, stepErr(ErrNotFound, nodeID, steps[len(steps)-1].Name, "offscreen",
		"navigation did not converge")
}

// deepestVisible returns the largest step index resolvable in the snapshot:
// per step, from the deepest, an exact identifier match first and a fuzzy
// match as its fallback.
func (s *Session) deepestVisible(steps []*forest.Node, snap []*uia.Element) (int, *uia.Element) {
	var buf [16]*uia.Element
	first := FirstOnScreen(steps, snap, buf[:0])
	for i := len(steps) - 1; i >= 0; i-- {
		if el := first[i]; el != nil {
			return i, el
		}
		if s.Opt.DisableFuzzy {
			continue
		}
		if el := s.fuzzyFind(steps[i], snap); el != nil {
			return i, el
		}
	}
	return -1, nil
}

// FirstOnScreen returns, per chain step, the first element of screen
// carrying the step's id, or nil: first occurrence wins, and window roots
// (containers, not modeled controls) never match. The result is built in
// buf's storage when it is long enough. One pass over the screen serves
// the whole chain, which is a handful of steps, so no id map is needed.
func FirstOnScreen(chain []*forest.Node, screen []*uia.Element, buf []*uia.Element) []*uia.Element {
	first := buf[:0]
	if cap(first) < len(chain) {
		first = make([]*uia.Element, 0, len(chain))
	}
	first = first[:len(chain)]
	clear(first)
	for _, e := range screen {
		if e.Parent() == nil {
			continue
		}
		id := e.ControlID()
		for i, n := range chain {
			if first[i] == nil && n.ID == id {
				first[i] = e
			}
		}
	}
	return first
}

// fuzzyFind locates the best fuzzy match for a step among on-screen
// elements of the same control type (§3.4: control type + ancestor
// hierarchy + name similarity). Container controls are exempt: sibling
// containers (the Home vs Insert tab panels) score deceptively high on
// ancestor overlap, and renames only afflict interactive controls.
func (s *Session) fuzzyFind(step *forest.Node, snap []*uia.Element) *uia.Element {
	if !fuzzyEligible(step.Type) {
		return nil
	}
	var best *uia.Element
	bestScore := fuzzyThreshold
	anc := s.scratchAnc
	for _, e := range snap {
		if e.Parent() == nil || e.Type() != step.Type {
			continue
		}
		anc = anc[:0] // per-element scratch: matchScore only reads it
		for cur := e.Parent(); cur != nil && cur.Parent() != nil; cur = cur.Parent() {
			anc = append(anc, cur.PrimaryID())
		}
		score := matchScore(step, e.PrimaryID(), e.Name(), anc)
		if score > bestScore {
			bestScore = score
			best = e
		}
	}
	s.scratchAnc = anc
	return best
}

// fuzzyEligible reports whether controls of this type participate in fuzzy
// matching.
func fuzzyEligible(t uia.ControlType) bool {
	switch t {
	case uia.PaneControl, uia.GroupControl, uia.TabControl, uia.ListControl,
		uia.MenuControl, uia.MenuBarControl, uia.ToolBarControl,
		uia.TreeControl, uia.DataGridControl, uia.TableControl,
		uia.WindowControl, uia.HeaderControl, uia.TitleBarControl,
		uia.StatusBarControl, uia.DocumentControl:
		return false
	}
	return true
}

func (s *Session) isMainWindow(win *uia.Element) bool {
	ws := s.App.Desk.Windows()
	return len(ws) > 0 && ws[0] == win
}

// closeTopWindow dismisses a window that contains no remaining navigation
// step, favouring the saving of modifications: OK > Close > Cancel, with
// Esc as the final fallback (§4.3). It returns the number of primitive UI
// actions it spent (button clicks plus the possible Esc), so callers can
// account every action — a single close can cost up to four.
func (s *Session) closeTopWindow(win *uia.Element, snap []*uia.Element) int {
	acted := 0
	for _, name := range []string{"OK", "Close", "Cancel"} {
		for _, e := range snap {
			if e.Type() == uia.ButtonControl && e.Name() == name && e.Enabled() {
				s.Actions++
				acted++
				if err := s.App.Desk.Click(e); err == nil {
					if !s.App.Desk.IsOpen(win) {
						return acted
					}
				}
				break
			}
		}
		if !s.App.Desk.IsOpen(win) {
			return acted
		}
	}
	s.Actions++
	acted++
	_ = s.App.Desk.PressKey("ESC")
	return acted
}
