package agent

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/osworld"
	"repro/internal/strutil"
	"repro/internal/uia"
)

// runDMI executes the task through the declarative interface. Access,
// input, and shortcut steps batch into visit calls planned globally over
// the navigation forest; state and observation declarations run in their
// own turns (the stop-and-observe rule of §3.4). Returns true if the run
// aborted unrecoverably.
func (d *driver) runDMI() bool {
	var batch []core.Command

	flush := func() bool {
		if len(batch) == 0 {
			return false
		}
		cmds := batch
		batch = nil
		if d.overCap() {
			return true
		}
		d.call(d.dmiPrompt(), true)
		res := d.sess.Visit(cmds)
		if res.OK() {
			return false
		}
		// Structured error feedback → one replanning round (§3.4).
		if d.overCap() {
			return true
		}
		d.call(d.dmiPrompt(), true)
		tag := osworld.FailExecution
		if res.Err.Code == core.ErrNotFound {
			tag = osworld.FailTopology
		}
		if d.chance(d.p.Recover) {
			// GUI fallback: the agent locates the control on the live
			// screen and clicks it imperatively (§6, fast/slow path).
			if d.guiFallback(res.Err) {
				d.recovered(tag)
				// Re-run whatever followed the failing command.
				rest := remainingAfter(cmds, res)
				if len(rest) > 0 {
					res2 := d.sess.Visit(rest)
					if !res2.OK() {
						d.fail(tag)
						return false
					}
				}
				return false
			}
		}
		d.fail(tag)
		return false
	}

	// Phase 1 — global planning over the navigation forest: apply the
	// semantic channels to every step and resolve targets up front. This
	// is the declarative advantage (§5.3): the LLM can plan over controls
	// that are not yet visible.
	type plannedStep struct {
		step osworld.PlanStep
		it   intent
		res  resolved
		node *forest.Node
		drop bool
	}
	var plan []plannedStep
	var missing []int // node ids outside the core topology
	for _, step := range d.task.Plan {
		pl := plannedStep{step: step}
		switch step.Kind {
		case osworld.StepAccess, osworld.StepInput, osworld.StepShortcut:
			pl.it = d.intend(step, 1.0)
			if pl.it.skip {
				d.fail(pl.it.tag)
				pl.drop = true
				break
			}
			if step.Kind == osworld.StepShortcut {
				break
			}
			r, err := resolveTarget(d.model, pl.it.target)
			if err != nil {
				d.fail(osworld.FailAmbiguousTask)
				pl.drop = true
				break
			}
			pl.res = r
			pl.node = r.node
			if pl.it.sibling {
				if sib := siblingDistractor(pl.node, d.rng.Intn); sib != nil {
					pl.node = sib
				}
			}
			if pl.it.tag != "" {
				d.fail(pl.it.tag)
			}
			if !r.nonLeaf && !inCoreTopology(pl.node) {
				missing = append(missing, d.model.ID(pl.node))
			}
		}
		plan = append(plan, pl)
	}

	// One further_query round fetches every missing branch (§3.3, query
	// on demand — targeted branch queries batch into a single call).
	if len(missing) > 0 {
		if d.overCap() {
			return true
		}
		d.call(d.dmiPrompt(), true)
		res := d.sess.Visit([]core.Command{core.FurtherQuery(missing...)})
		if res.OK() {
			d.prompt += strutil.EstimateTokens(res.QueryText)
		}
	}

	// Phase 2 — execute: batch access/input/shortcut into visit calls;
	// state and observation declarations run in their own turns.
	for _, pl := range plan {
		if pl.drop {
			continue
		}
		step := pl.step
		switch step.Kind {
		case osworld.StepAccess, osworld.StepInput:
			// Functional controls the ripper saw revealing further UI are
			// non-leaves; the visit filter would drop them, so the agent
			// takes the imperative slow path (§5.7).
			if pl.res.nonLeaf {
				if flush() || d.overCap() {
					return true
				}
				// guiNavigateAndAct accounts its own calls.
				navErr := d.p.EffectiveNavError(true)
				if aborted := d.guiNavigateAndAct(pl.node, pl.res.refs, step, navErr); aborted {
					return true
				}
				d.flushGUICall()
				continue
			}
			// Offline-model staleness injection: the live control drifted
			// since modeling (§6).
			if d.chance(d.cfg.TopologyMissRate) {
				d.renameLive(pl.node)
			}
			// Imperfect instruction-following: the LLM sometimes emits
			// navigation nodes too; the executor filters them (§3.4).
			if d.chance(d.p.InstrNoise) && pl.node.Parent != nil {
				batch = append(batch, core.AccessRef(d.model.ID(pl.node.Parent), pl.res.refs...))
			}
			if step.Kind == osworld.StepInput {
				cmd := core.Input(d.model.ID(pl.node), step.Text)
				cmd.EntryRefIDs = pl.res.refs
				batch = append(batch, cmd)
			} else {
				batch = append(batch, core.AccessRef(d.model.ID(pl.node), pl.res.refs...))
			}

		case osworld.StepShortcut:
			batch = append(batch, core.Shortcut(step.Key))

		case osworld.StepState:
			if flush() || d.overCap() {
				return true
			}
			d.call(d.dmiPrompt(), true)
			d.execStateDMI(step)

		case osworld.StepObserve:
			if flush() || d.overCap() {
				return true
			}
			d.call(d.dmiPrompt(), true)
			d.observeDMI(step)
		}
	}
	return flush()
}

// remainingAfter returns the commands after the one that failed.
func remainingAfter(cmds []core.Command, res *core.VisitResult) []core.Command {
	done := len(res.Executed) // last executed entry is the failed one
	if done >= len(cmds) {
		return nil
	}
	return cmds[done:]
}

// guiFallback imperatively clicks the live control the declarative path
// could not resolve (slow-path recovery). It succeeds when the control is
// reachable on screen after opening its parent chain with best effort.
func (d *driver) guiFallback(serr *core.StepError) bool {
	node := d.model.Node(serr.NodeID)
	if node == nil {
		return false
	}
	el := d.findLive(node)
	if el == nil {
		return false
	}
	// Visual grounding still applies on the slow path.
	if d.chance(d.p.Grounding) {
		return false
	}
	if !el.OnScreen() {
		// Approximate re-navigation: click the on-screen ancestor chain.
		for _, anc := range node.PathFromRoot() {
			if ael := d.findLive(anc); ael != nil && ael.OnScreen() {
				_ = d.env.App.Desk.Click(ael)
			}
		}
	}
	return d.env.App.Desk.Click(el) == nil
}

// renameLive renames the live element for a node beyond fuzzy-match reach,
// simulating model staleness.
func (d *driver) renameLive(node *forest.Node) {
	if el := d.findLive(node); el != nil {
		el.SetName(fmt.Sprintf("Untitled %d", d.rng.Intn(900)+100))
	}
}

// findLive locates the live element whose synthesized id matches the node:
// the first in document order in the main window, else in the first popup
// template, opened or not, that holds one. It descends only along the id's
// ancestor path, building the deferred item lists on that path, so it
// finds what a search of the fully built surface would.
func (d *driver) findLive(node *forest.Node) *uia.Element {
	_, _, anc := uia.SplitControlID(node.ID)
	if el := d.findUnder(d.env.App.Win, anc, node.ID); el != nil {
		return el
	}
	for _, w := range d.env.App.AllPopupWindows() {
		if el := d.findUnder(w, anc, node.ID); el != nil {
			return el
		}
	}
	return nil
}

// findUnder returns the first element under e, e included, whose control
// id is gid, given anc, the part of gid's ancestor path still to match
// from e down. Primary ids may contain '/', so each step matches e's
// primary id as a prefix of anc rather than splitting anc.
func (d *driver) findUnder(e *uia.Element, anc, gid string) *uia.Element {
	if anc == "" {
		if e.ControlID() == gid {
			return e
		}
		return nil
	}
	rest, ok := strings.CutPrefix(anc, e.PrimaryID())
	if !ok || (rest != "" && rest[0] != '/') {
		return nil
	}
	d.env.App.MaterializeList(e)
	if rest == "" {
		for _, c := range e.Children() {
			if c.ControlID() == gid {
				return c
			}
		}
		return nil
	}
	for _, c := range e.Children() {
		if el := d.findUnder(c, rest[1:], gid); el != nil {
			return el
		}
	}
	return nil
}

// execStateDMI performs a state declaration with possible semantic argument
// errors (the interface executes reliably; what can go wrong is the
// declared target state itself).
func (d *driver) execStateDMI(step osworld.PlanStep) {
	so := *step.State
	tag := step.TrapKind
	if tag == "" {
		tag = osworld.FailAmbiguousTask
	}
	wrong := d.chance(d.p.Semantic * (0.5 + step.Ambiguity + d.task.Ambiguity))
	if wrong {
		switch so.Op {
		case core.OpScrollbar:
			so.V += float64(d.rng.Intn(50) - 25)
		case core.OpSelectLines, core.OpSelectParagraphs:
			so.Start += d.rng.Intn(3) - 1
			so.End += d.rng.Intn(3) - 1
		case core.OpSetRangeValue:
			so.Value *= 0.5 + d.rng.Float64()
		}
		d.fail(tag)
	}
	lm := d.sess.CaptureLabels()
	label := lm.Find(so.ControlName, so.ControlType)
	if label == "" {
		d.fail(osworld.FailTopology)
		return
	}
	labels := []string{label}
	if so.Op == core.OpSelectControls {
		labels = labels[:0]
		for _, n := range so.Names {
			if l := lm.Find(n, so.ControlType); l != "" {
				labels = append(labels, l)
			}
		}
	}
	decl := core.Declaration{Op: so.Op, Labels: labels,
		H: so.H, V: clamp(so.V), Start: so.Start, End: so.End, On: so.On, Value: so.Value}
	if serr := d.sess.Declare(lm, decl); serr != nil && !wrong {
		d.fail(osworld.FailExecution)
	}
}

// observeDMI answers an observation step through get_texts: structured
// retrieval, no pixel parsing (§3.5).
func (d *driver) observeDMI(step osworld.PlanStep) {
	lm := d.sess.CaptureLabels()
	// Structured observation reads the full value; the only residual
	// error is semantic (answering with the wrong cell), kept tiny.
	el := lm.Find(step.Target.Primary, uia.DataItemControl)
	if el == "" {
		// Try by automation-id style primary ("cellC22" → name "C22").
		el = lm.Find(trimCellPrefix(step.Target.Primary), uia.DataItemControl)
	}
	if el == "" {
		d.fail(osworld.FailTopology)
		return
	}
	texts, serr := d.sess.GetTexts(lm, []string{el})
	if serr != nil {
		d.fail(osworld.FailExecution)
		return
	}
	d.env.Answer = texts[el]
}

func trimCellPrefix(s string) string {
	if len(s) > 4 && s[:4] == "cell" {
		return s[4:]
	}
	return s
}

// dmiPrompt is the token cost of a DMI-mode call: usage prompt, the core
// navigation forest (>80% of the overhead, §5.4), screen labels, and the
// passive DataItem payload. It runs before every LLM call, so it costs the
// screen through the one-pass PromptStats instead of a full label capture.
func (d *driver) dmiPrompt() int {
	controls, passive := d.sess.PromptStats(24)
	return 700 + d.models.CoreTokens[d.task.App] +
		controls*2 + strutil.EstimateTokens(passive) +
		strutil.EstimateTokens(d.task.Description)
}

func clamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 100 {
		return 100
	}
	return v
}
