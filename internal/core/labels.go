package core

import (
	"strings"

	"repro/internal/strutil"
	"repro/internal/uia"
)

// LabelMap assigns alphabetic labels ("A", "B", ..., "AA", ...) to the
// controls of the current screen's accessibility tree. State and
// observation interfaces operate on these labels only — static topology ids
// are explicitly prohibited there to keep visit and interaction interfaces
// separated (paper §3.5). A control's label is its position in order
// written in bijective base 26, so the map keeps no per-label index:
// labels are computed from positions and positions from labels.
type LabelMap struct {
	order []*uia.Element
}

// CaptureLabels snapshots the desktop and labels every on-screen control in
// stacking/document order — the same labeling the GUI baseline puts in its
// prompt (§5.1: alphabetic labels, distinct from numeric topology ids).
func (s *Session) CaptureLabels() *LabelMap {
	// The snapshot is a fresh slice, so it is filtered in place.
	order := s.App.Desk.Snapshot(nil)
	n := 0
	for _, e := range order {
		if e.Parent() != nil { // window roots are not controls
			order[n] = e
			n++
		}
	}
	return &LabelMap{order: order[:n]}
}

// maxLabelLen bounds the labels labelIndex decodes: six letters name over
// 321 million controls, and the value cannot overflow a 32-bit int.
const maxLabelLen = 6

// alphaLabel converts an index to an alphabetic label: 0→A, 25→Z, 26→AA.
func alphaLabel(i int) string {
	var buf [16]byte // 26^14 > 2^63: no int needs more letters
	n := len(buf)
	for {
		n--
		buf[n] = byte('A' + i%26)
		i = i/26 - 1
		if i < 0 {
			return string(buf[n:])
		}
	}
}

// labelIndex inverts alphaLabel: the index whose label is label, or -1 if
// label is empty, longer than maxLabelLen, or has a byte outside 'A'–'Z'.
func labelIndex(label string) int {
	if label == "" || len(label) > maxLabelLen {
		return -1
	}
	n := 0
	for i := 0; i < len(label); i++ {
		c := label[i]
		if c < 'A' || c > 'Z' {
			return -1
		}
		n = n*26 + int(c-'A') + 1
	}
	return n - 1
}

// Element resolves a label, or nil. Case and surrounding space are ignored.
func (m *LabelMap) Element(label string) *uia.Element {
	i := labelIndex(strings.ToUpper(strings.TrimSpace(label)))
	if i < 0 || i >= len(m.order) {
		return nil
	}
	return m.order[i]
}

// Len returns the number of labeled controls.
func (m *LabelMap) Len() int { return len(m.order) }

// Find returns the label of the first control matching name and type, or
// "". Tests and task oracles use it; the planner reads labels from the
// rendered screen text.
func (m *LabelMap) Find(name string, t uia.ControlType) string {
	want := strutil.Normalize(name)
	for i, e := range m.order {
		if e.Type() == t && strutil.Normalize(e.Name()) == want {
			return alphaLabel(i)
		}
	}
	return ""
}
