package core

import (
	"fmt"
	"strings"

	"repro/internal/strutil"
	"repro/internal/uia"
)

// LabelMap assigns alphabetic labels ("A", "B", ..., "AA", ...) to the
// controls of the current screen's accessibility tree. State and
// observation interfaces operate on these labels only — static topology ids
// are explicitly prohibited there to keep visit and interaction interfaces
// separated (paper §3.5).
type LabelMap struct {
	order   []*uia.Element
	byLabel map[string]*uia.Element
	labels  map[*uia.Element]string
}

// CaptureLabels snapshots the desktop and labels every on-screen control in
// stacking/document order — the same labeling the GUI baseline puts in its
// prompt (§5.1: alphabetic labels, distinct from numeric topology ids).
func (s *Session) CaptureLabels() *LabelMap {
	lm := &LabelMap{
		byLabel: make(map[string]*uia.Element),
		labels:  make(map[*uia.Element]string),
	}
	for _, e := range s.App.Desk.Snapshot(nil) {
		if e.Parent() == nil {
			continue // window roots are not controls
		}
		l := alphaLabel(len(lm.order))
		lm.order = append(lm.order, e)
		lm.byLabel[l] = e
		lm.labels[e] = l
	}
	return lm
}

// alphaLabel converts an index to an alphabetic label: 0→A, 25→Z, 26→AA.
func alphaLabel(i int) string {
	label := ""
	for {
		label = string(rune('A'+i%26)) + label
		i = i/26 - 1
		if i < 0 {
			break
		}
	}
	return label
}

// Element resolves a label, or nil.
func (m *LabelMap) Element(label string) *uia.Element {
	return m.byLabel[strings.ToUpper(strings.TrimSpace(label))]
}

// Label returns the label assigned to an element ("" if unlabeled).
func (m *LabelMap) Label(e *uia.Element) string { return m.labels[e] }

// Len returns the number of labeled controls.
func (m *LabelMap) Len() int { return len(m.order) }

// Find returns the label of the first control matching name and type, or
// "". Tests and task oracles use it; the planner reads labels from the
// rendered screen text.
func (m *LabelMap) Find(name string, t uia.ControlType) string {
	want := strutil.Normalize(name)
	for _, e := range m.order {
		if e.Type() == t && strutil.Normalize(e.Name()) == want {
			return m.labels[e]
		}
	}
	return ""
}

// Render produces the prompt text describing the labeled screen: one
// control per line, "label name(type)[state]". Long screens are the
// baseline's whole context; DMI uses this only for interaction-related
// interfaces.
func (m *LabelMap) Render(limit int) string {
	var b strings.Builder
	for i, e := range m.order {
		if limit > 0 && i >= limit {
			fmt.Fprintf(&b, "… %d more controls\n", len(m.order)-i)
			break
		}
		name := e.Name()
		if name == "" {
			name = "[Unnamed]"
		}
		fmt.Fprintf(&b, "%s %s(%s)", m.labels[e], name, e.Type())
		if !e.Enabled() {
			b.WriteString("[disabled]")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
