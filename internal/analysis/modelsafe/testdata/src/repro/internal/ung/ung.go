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
}

type Graph struct {
	Nodes []Node
	edges []int32
	off   []int32
	index map[string]int32
}

func (g *Graph) Out(i int32) []int32 { return g.edges[g.off[2*i]:g.off[2*i+1]:g.off[2*i+1]] }

func (g *Graph) In(i int32) []int32 { return g.edges[g.off[2*i+1]:g.off[2*i+2]:g.off[2*i+2]] }

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
	g.edges = append(g.edges, to, from)
}

func (g *Graph) retarget(from, to int32) {
	g.Out(from)[0] = to
}
