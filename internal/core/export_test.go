package core

import "repro/internal/uia"

// Label returns the label assigned to an element ("" if unlabeled).
func (m *LabelMap) Label(e *uia.Element) string {
	for i, x := range m.order {
		if x == e {
			return alphaLabel(i)
		}
	}
	return ""
}
