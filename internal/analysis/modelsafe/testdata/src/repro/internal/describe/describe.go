// Package describe is a modelsafe fixture stub for repro/internal/describe.
// The in-package write below is construction code and allowed.
package describe

import "repro/internal/forest"

type Model struct {
	App    string
	Forest *forest.Forest
}

// Node returns a node of the model's forest; stores through its result are
// stores into the model.
func (m *Model) Node(i int) *forest.Node { return m.Forest.Main }

func New(app string, f *forest.Forest) *Model {
	m := &Model{App: app}
	m.Forest = f
	return m
}
