package modelclient

import (
	"repro/internal/core"
	"repro/internal/ung"
)

// The write and mutator rules exempt test files (tests build their own
// fixtures by construction)...
func buildFixtureGraph() *ung.Graph {
	g := &ung.Graph{}
	a, _ := g.AddNode(ung.Reveal{ID: "a"}, "")
	b, _ := g.AddNode(ung.Reveal{ID: "b"}, "")
	g.AddEdge(a, b)
	g.Nodes[b].Name = "renamed"
	return g
}

// ...but the session-goroutine rule holds in tests too: a test that leaks
// a session across goroutines races for real.
func leakInTest(s *core.Session) {
	go s.Step() // want `session s crosses a goroutine boundary`
}
