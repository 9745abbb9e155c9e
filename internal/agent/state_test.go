package agent

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/office/word"
	"repro/internal/osworld"
	"repro/internal/uia"
)

// TestToggleAndExpandOnBothAgents: set_toggle_state and set_expanded, which
// no built-in plan uses but a pack may name, run on the declarative agent
// (through Session.Declare) and on the imperative baseline, where a missed
// round leaves the control in the other state.
func TestToggleAndExpandOnBothAgents(t *testing.T) {
	sel := osworld.StateOp{Op: core.OpSelectParagraphs, ControlName: "Document",
		ControlType: uia.DocumentControl, Start: 1, End: 1}
	bold := osworld.StateOp{Op: core.OpSetToggleState, ControlName: "Bold",
		ControlType: uia.ButtonControl, On: true}
	font := osworld.StateOp{Op: core.OpSetExpanded, ControlName: "Font",
		ControlType: uia.ComboBoxControl, On: true}
	newDriver := func() (*driver, *word.App) {
		w := word.New()
		return &driver{p: oracle(), env: &osworld.Env{App: w.App}, rng: rand.New(rand.NewSource(1)),
			sess: core.NewSession(w.App, nil, core.Options{})}, w
	}
	expanded := func(w *word.App) bool {
		cb := w.Win.FindByAutomationID("wFontName")
		return cb.Pattern(uia.ExpandCollapsePattern).(uia.ExpandCollapser).ExpandState(cb) == uia.Expanded
	}

	d, w := newDriver()
	for _, so := range []osworld.StateOp{sel, bold, font} {
		d.execStateDMI(osworld.PlanStep{Kind: osworld.StepState, State: &so})
	}
	if len(d.events) != 0 {
		t.Errorf("DMI agent recorded failures: %+v", d.events)
	}
	if !w.Doc.Paras[0].Bold || !expanded(w) {
		t.Errorf("DMI agent: bold=%v expanded=%v, want both", w.Doc.Paras[0].Bold, expanded(w))
	}

	for _, miss := range []bool{false, true} {
		d, w := newDriver()
		d.applyComposite(sel, false)
		d.applyComposite(bold, miss)
		d.applyComposite(font, miss)
		if w.Doc.Paras[0].Bold == miss || expanded(w) == miss {
			t.Errorf("GUI agent, miss=%v: bold=%v expanded=%v", miss, w.Doc.Paras[0].Bold, expanded(w))
		}
	}
}
