// Package ung is a modelsafe fixture stub for repro/internal/ung: the
// protected graph types plus their construction-time mutators. Writes and
// mutator calls in this file are inside the defining package and allowed.
package ung

type Reveal struct {
	ID   string
	Name string
}

type Node struct {
	ID   string
	Name string
	Out  []int32
	In   []int32
}

type Graph struct {
	Nodes []Node
	index map[string]int32
}

func (g *Graph) AddNode(r Reveal, context string) (int32, bool) {
	if i, ok := g.index[r.ID]; ok {
		return i, false
	}
	if g.index == nil {
		g.index = make(map[string]int32)
	}
	i := int32(len(g.Nodes))
	g.Nodes = append(g.Nodes, Node{ID: r.ID, Name: r.Name})
	g.index[r.ID] = i
	return i, true
}

func (g *Graph) AddEdge(from, to int32) {
	if from < 0 || to < 0 || int(from) >= len(g.Nodes) || int(to) >= len(g.Nodes) {
		return
	}
	g.Nodes[from].Out = append(g.Nodes[from].Out, to)
	g.Nodes[to].In = append(g.Nodes[to].In, from)
}
