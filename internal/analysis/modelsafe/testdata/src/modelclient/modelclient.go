// Package modelclient is the modelsafe consumer fixture: it holds frozen
// model values built elsewhere, so every write below is a violation and
// every read is fine.
package modelclient

import (
	"repro/internal/core"
	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/ung"
)

func mutateModel(m *describe.Model, f *forest.Forest) {
	m.Forest = f // want `write to Model.Forest outside repro/internal/describe`
}

func mutateForestNode(n *forest.Node) {
	n.Name = "renamed"                   // want `write to Node.Name outside repro/internal/forest`
	n.Children = append(n.Children, nil) // want `write to Node.Children outside repro/internal/forest`
}

func mutateDeepChain(m *describe.Model) {
	m.Forest.Main = nil  // want `write to Forest.Main outside repro/internal/forest`
	m.Node(0).Name = "x" // want `write to Node.Name outside repro/internal/forest`
}

func mutateGraph(g *ung.Graph) {
	g.Nodes = nil                      // want `write to Graph.Nodes outside repro/internal/ung`
	g.Nodes[0].Name = "renamed"        // want `write to Node.Name outside repro/internal/ung`
	g.Out(0)[0] = 1                    // want `write to Graph.Out\(...\)\[...\] outside repro/internal/ung`
	g.In(1)[0]++                       // want `write to Graph.In\(...\)\[...\] outside repro/internal/ung`
	g.AddNode(ung.Reveal{ID: "y"}, "") // want `AddNode mutates a frozen graph outside repro/internal/ung`
	g.AddEdge(0, 1)                    // want `AddEdge mutates a frozen graph outside repro/internal/ung`
}

func readGraph(g *ung.Graph) int {
	n := 0
	for i := range int32(len(g.Nodes)) {
		n += len(g.Out(i)) + int(g.In(i)[0])
	}
	return n
}

func readOnly(m *describe.Model) int {
	total := 0
	for _, n := range m.Forest.Shared {
		total += len(n.Children)
	}
	return total
}

func localStructsAreFree() {
	type scratch struct{ n int }
	s := &scratch{}
	s.n = 1
	s.n++
	_ = s
}

func leakSession(s *core.Session) {
	go func() { // launched closure captures s
		s.Step() // want `session s crosses a goroutine boundary`
	}()
	go s.Step() // want `session s crosses a goroutine boundary`
	go runIn(s) // want `session s crosses a goroutine boundary`
}

func ownedSession() {
	go func() {
		s := core.NewSession() // created inside the goroutine that runs it
		s.Step()
	}()
}

func runIn(s *core.Session) { s.Step() }
